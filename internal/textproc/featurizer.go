package textproc

import (
	"fmt"
	"math"
	"slices"

	"datasculpt/internal/par"
)

// DefaultFeatureDim is the default width of hashed feature vectors. 2^13
// buckets keep collisions rare for the vocabularies in this repo while the
// end model stays fast on the largest corpus (Agnews, 96k documents).
const DefaultFeatureDim = 8192

// Featurizer converts token sequences into hashed TF-IDF sparse vectors.
// It must be fitted on a corpus (typically the train split) before use so
// that inverse document frequencies are available. Fitting and transforming
// are deterministic: the same corpus always yields the same vectors.
type Featurizer struct {
	Dim int
	// Workers bounds the goroutines TransformAll fans out over (<= 1
	// sequential; every worker count yields identical vectors since each
	// document is transformed independently).
	Workers int
	// df maps hashed bucket -> number of fitted documents containing at
	// least one term hashing to the bucket.
	df   []int32
	idf  []float32
	docs int
	// incremental-fit state (BeginFit/FitChunk/FinishFit): seen[b] holds
	// the 1-based stamp of the last document that counted bucket b
	fitting bool
	pending int
	seen    []int32
}

// NewFeaturizer creates an unfitted featurizer with the given vector width.
// A non-positive dim selects DefaultFeatureDim.
func NewFeaturizer(dim int) *Featurizer {
	if dim <= 0 {
		dim = DefaultFeatureDim
	}
	return &Featurizer{Dim: dim, df: make([]int32, dim)}
}

// FNV-1a 32-bit constants (hash/fnv's, inlined so hashing a term costs
// zero allocations — the hash.Hash32 interface value and its internal
// state otherwise escape on every call, and a term is hashed once per
// token per document across Fit, Transform, and DocFreq).
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// hashKey maps a term to its feature key bucket<<1 | signbit with
// FNV-1a. The bucket is the hash modulo Dim; the sign (set bit: -1)
// implements the standard hashing-trick collision mitigation. Sorting
// keys groups each bucket's occurrences together.
func (f *Featurizer) hashKey(term string) uint32 {
	sum := uint32(fnvOffset32)
	for i := 0; i < len(term); i++ {
		sum ^= uint32(term[i])
		sum *= fnvPrime32
	}
	return sum%uint32(f.Dim)<<1 | sum>>31
}

// Fit accumulates document frequencies over the corpus and freezes IDF
// weights. Fit may be called exactly once; calling it again returns an
// error to prevent silently mixing statistics from different corpora.
func (f *Featurizer) Fit(corpus [][]string) error {
	if f.docs > 0 {
		return fmt.Errorf("featurizer: Fit called twice")
	}
	if len(corpus) == 0 {
		return fmt.Errorf("featurizer: empty corpus")
	}
	if err := f.BeginFit(); err != nil {
		return err
	}
	f.FitChunk(corpus)
	return f.FinishFit()
}

// BeginFit starts an incremental fit for streaming corpora that never
// materialize fully in memory: feed chunks through FitChunk and freeze
// with FinishFit. Document-frequency accumulation commutes, so any
// chunking of the same corpus yields exactly the statistics Fit computes
// in one shot.
func (f *Featurizer) BeginFit() error {
	if f.docs > 0 {
		return fmt.Errorf("featurizer: Fit called twice")
	}
	if f.fitting {
		return fmt.Errorf("featurizer: BeginFit called twice")
	}
	f.fitting = true
	f.seen = make([]int32, f.Dim)
	return nil
}

// FitChunk accumulates document frequencies over one chunk. It panics if
// called outside a BeginFit/FinishFit window (a programming error, like
// Transform before Fit).
func (f *Featurizer) FitChunk(corpus [][]string) {
	if !f.fitting {
		panic("featurizer: FitChunk outside BeginFit/FinishFit")
	}
	for i, tokens := range corpus {
		stamp := int32(f.pending + i + 1)
		for _, t := range tokens {
			b := f.hashKey(t) >> 1
			if f.seen[b] != stamp {
				f.seen[b] = stamp
				f.df[b]++
			}
		}
	}
	f.pending += len(corpus)
}

// FinishFit freezes the IDF weights accumulated since BeginFit. It
// errors when no documents were fed, mirroring Fit's empty-corpus check.
func (f *Featurizer) FinishFit() error {
	if !f.fitting {
		return fmt.Errorf("featurizer: FinishFit without BeginFit")
	}
	if f.pending == 0 {
		return fmt.Errorf("featurizer: empty corpus")
	}
	f.docs = f.pending
	f.fitting = false
	f.pending = 0
	f.seen = nil
	f.idf = make([]float32, f.Dim)
	for b := range f.idf {
		// Smoothed IDF; buckets never seen get the maximum weight.
		f.idf[b] = float32(math.Log(float64(1+f.docs)/float64(1+f.df[b])) + 1)
	}
	return nil
}

// Fitted reports whether Fit has completed.
func (f *Featurizer) Fitted() bool { return f.docs > 0 }

// Transform converts one token sequence into an L2-normalized hashed
// TF-IDF vector. Transform panics if the featurizer is unfitted, because
// that is always a programming error rather than a data condition.
func (f *Featurizer) Transform(tokens []string) *SparseVector {
	return f.TransformAll([][]string{tokens})[0]
}

// TransformAll maps Transform over a corpus, sharding documents across
// the configured Workers (identical output at any worker count). Each
// chunk ends up with one Idx and one Val backing holding exactly its
// non-zeros, and every row is a capacity-limited window of them, so the
// corpus costs a few allocations rather than three per document, and
// appending to one row can never overwrite the next.
func (f *Featurizer) TransformAll(corpus [][]string) []*SparseVector {
	if len(corpus) > 0 && !f.Fitted() {
		panic("featurizer: Transform before Fit")
	}
	out := make([]*SparseVector, len(corpus))
	rows := make([]SparseVector, len(corpus))
	par.Chunks(f.Workers, len(corpus), func(lo, hi int) {
		tokens, longest := 0, 0
		for _, doc := range corpus[lo:hi] {
			tokens += len(doc)
			longest = max(longest, len(doc))
		}
		// A row has at most one entry per token, so the chunk's rows are
		// built in token-sized scratch, each recorded as a window of it.
		keys := make([]uint32, longest)
		idx := make([]int32, tokens)
		val := make([]float32, tokens)
		off := 0
		for i := lo; i < hi; i++ {
			n := f.row(corpus[i], keys, idx[off:], val[off:])
			rows[i].Idx = idx[off : off+n]
			off += n
		}
		// Long, repetitive documents have far fewer non-zeros than
		// tokens, and the rows live as long as the split, so they move
		// to backings of the filled size.
		idx, val = slices.Clone(idx[:off]), slices.Clone(val[:off])
		off = 0
		for i := lo; i < hi; i++ {
			end := off + len(rows[i].Idx)
			rows[i] = SparseVector{Idx: idx[off:end:end], Val: val[off:end:end]}
			out[i] = &rows[i]
			off = end
		}
	})
	return out
}

// row writes the normalized TF-IDF entries of tokens, in ascending
// bucket order, to the front of idx and val and returns their count. keys
// is scratch; keys, idx and val each hold at least len(tokens) entries.
func (f *Featurizer) row(tokens []string, keys []uint32, idx []int32, val []float32) int {
	keys = keys[:len(tokens)]
	for i, t := range tokens {
		keys[i] = f.hashKey(t)
	}
	slices.Sort(keys)
	n := 0
	for i := 0; i < len(keys); {
		b := keys[i] >> 1
		// tf is the signed occurrence count: an exact integer, as the
		// float32 sum of +-1 it replaces is below 2^24 occurrences
		tf := 0
		for ; i < len(keys) && keys[i]>>1 == b; i++ {
			tf += 1 - 2*int(keys[i]&1)
		}
		if tf == 0 {
			continue // signed collisions cancelled out
		}
		// Sub-linear TF damping keeps long reviews (IMDB) comparable to
		// short comments (Youtube). Log(1) is exactly 0, so the common
		// |tf| == 1 skips the call.
		mag := float32(1)
		if a := math.Abs(float64(tf)); a > 1 {
			mag = float32(1 + math.Log(a))
		}
		if tf < 0 {
			mag = -mag
		}
		idx[n], val[n] = int32(b), mag*f.idf[b]
		n++
	}
	v := SparseVector{Idx: idx[:n], Val: val[:n]}
	v.Normalize()
	return n
}

// DocFreq returns the fraction of fitted documents whose hash signature
// includes the given term's bucket. It upper-bounds the term's true
// document frequency (bucket collisions only inflate it) and is used by
// the SEU sampler to prune ultra-rare candidate keywords cheaply.
func (f *Featurizer) DocFreq(term string) float64 {
	if !f.Fitted() {
		return 0
	}
	b := f.hashKey(term) >> 1
	return float64(f.df[b]) / float64(f.docs)
}
