package experiment

import (
	"fmt"

	"datasculpt/internal/ckpt"
	"datasculpt/internal/core"
)

// Grid checkpointing: every completed (method, dataset, seed) cell is
// appended to a JSONL file as one self-contained record, and a later
// sweep over the same grid can skip the cells already on disk
// (Options.ResumeFrom). Records are written with a single Write call per
// line, so a crash or Ctrl-C can at worst tear the final line — which
// the loader tolerates and the resumed sweep simply recomputes.
//
// Only successful cells are checkpointed. A cell that failed (recorded
// under Options.KeepGoing) is re-run on resume: transient failures are
// exactly what a restart should retry.

// CellResult is the serializable subset of core.Result a checkpoint
// keeps — every field grid aggregation and rendering consume. The LF
// set itself is deliberately dropped: grids report statistics, and
// keeping checkpoints small keeps appends cheap.
type CellResult struct {
	NumLFs           int     `json:"num_lfs"`
	LFAccuracy       float64 `json:"lf_accuracy"`
	LFAccuracyKnown  bool    `json:"lf_accuracy_known"`
	LFCoverage       float64 `json:"lf_coverage"`
	TotalCoverage    float64 `json:"total_coverage"`
	EndMetric        float64 `json:"end_metric"`
	MetricName       string  `json:"metric_name"`
	PromptTokens     int     `json:"prompt_tokens"`
	CompletionTokens int     `json:"completion_tokens"`
	Calls            int     `json:"calls"`
	CostUSD          float64 `json:"cost_usd"`
	ParseFailures    int     `json:"parse_failures,omitempty"`
	FailedIterations int     `json:"failed_iterations,omitempty"`
}

// NewCellResult extracts the checkpointable subset of a run result
// (exported so the datasculpt CLI can checkpoint its per-seed runs).
func NewCellResult(r *core.Result) *CellResult {
	return &CellResult{
		NumLFs:           r.NumLFs,
		LFAccuracy:       r.LFAccuracy,
		LFAccuracyKnown:  r.LFAccuracyKnown,
		LFCoverage:       r.LFCoverage,
		TotalCoverage:    r.TotalCoverage,
		EndMetric:        r.EndMetric,
		MetricName:       r.MetricName,
		PromptTokens:     r.PromptTokens,
		CompletionTokens: r.CompletionTokens,
		Calls:            r.Calls,
		CostUSD:          r.CostUSD,
		ParseFailures:    r.ParseFailures,
		FailedIterations: r.FailedIterations,
	}
}

// CoreResult reconstitutes the stored statistics as a core.Result for
// aggregation (LFs and rejection counts are not restored).
func (c *CellResult) CoreResult(method, ds string) *core.Result {
	return &core.Result{
		Dataset:          ds,
		Method:           method,
		NumLFs:           c.NumLFs,
		LFAccuracy:       c.LFAccuracy,
		LFAccuracyKnown:  c.LFAccuracyKnown,
		LFCoverage:       c.LFCoverage,
		TotalCoverage:    c.TotalCoverage,
		EndMetric:        c.EndMetric,
		MetricName:       c.MetricName,
		PromptTokens:     c.PromptTokens,
		CompletionTokens: c.CompletionTokens,
		Calls:            c.Calls,
		CostUSD:          c.CostUSD,
		ParseFailures:    c.ParseFailures,
		FailedIterations: c.FailedIterations,
	}
}

// CellRecord is one completed cell in a checkpoint file. Grid is the
// sweep title, so one file can hold several sweeps (`benchtab -all`)
// without cross-contaminating resumes.
type CellRecord struct {
	Grid    string      `json:"grid"`
	Method  string      `json:"method"`
	Dataset string      `json:"dataset"`
	Seed    int         `json:"seed"`
	Result  *CellResult `json:"result"`
}

// cellKey identifies a cell within one sweep.
func cellKey(method, ds string, seed int) string {
	return fmt.Sprintf("%s|%s|%d", method, ds, seed)
}

// LoadCheckpoint reads every intact record of a checkpoint file. A
// missing file is an empty checkpoint (first run of a -resume sweep),
// and a torn or malformed final line — the footprint of a crash mid-
// append — is skipped rather than fatal. A malformed line anywhere
// else is reported: that is corruption, not a crash artifact. A record
// without a result payload counts as malformed.
func LoadCheckpoint(path string) ([]CellRecord, error) {
	records, err := ckpt.Load(path, func(rec *CellRecord) bool { return rec.Result != nil })
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	return records, nil
}
