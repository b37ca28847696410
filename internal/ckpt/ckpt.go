// Package ckpt is the durable JSONL state machinery shared by every
// subsystem that must survive a kill: the experiment grid checkpoints
// and the online growth loop's cycle journals. One record is one JSON
// line, appended with a single Write call and fsynced, so a crash can at
// worst tear the final line. A record counts only once its newline is on
// disk: the loader skips a torn tail and Open cuts it off before the
// resumed process appends, so the recomputed record starts on a line of
// its own. A malformed line anywhere else is reported as corruption,
// never silently skipped.
package ckpt

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// maxLine bounds one record on load; growth corpus snapshots embed raw
// served texts, which can run long.
const maxLine = 4 * 1024 * 1024

// Writer appends records to a JSONL file. Appends are mutex-serialized
// and issued as one Write each, then synced, so concurrent writers
// cannot interleave bytes and a crash cannot lose a completed line.
type Writer struct {
	mu sync.Mutex
	f  *os.File
}

// Open opens (creating if needed) a JSONL file for appending, after
// cutting off a torn final line a crash mid-append left behind.
func Open(path string) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening %s: %w", path, err)
	}
	if err := cutTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("ckpt: repairing %s: %w", path, err)
	}
	return &Writer{f: f}, nil
}

// cutTornTail truncates f just after its last newline. It reads backwards
// from EOF, so an intact file costs one small read however long it is.
func cutTornTail(f *os.File) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	size, cut := st.Size(), int64(0)
	buf := make([]byte, 4096)
	for off := size; off > 0 && cut == 0; {
		n := min(off, int64(len(buf)))
		off -= n
		if _, err := f.ReadAt(buf[:n], off); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf[:n], '\n'); i >= 0 {
			cut = off + int64(i) + 1
		}
	}
	if cut == size {
		return nil
	}
	if err := f.Truncate(cut); err != nil {
		return err
	}
	return f.Sync()
}

// Append writes one record as a single JSONL line and syncs it to disk.
func (w *Writer) Append(v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("ckpt: encoding record: %w", err)
	}
	data = append(data, '\n')
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, err := w.f.Write(data); err != nil {
		return fmt.Errorf("ckpt: appending record: %w", err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("ckpt: syncing: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}

// Append opens path, appends one record, and closes it — for callers
// that write a handful of records per process lifetime and want every
// one durable without holding a file open.
func Append(path string, v any) error {
	w, err := Open(path)
	if err != nil {
		return err
	}
	aerr := w.Append(v)
	cerr := w.Close()
	if aerr != nil {
		return aerr
	}
	return cerr
}

// Load reads every intact record of a JSONL file into T values. A
// missing file is an empty checkpoint (first run), and a torn or
// malformed final line — the footprint of a crash mid-append — is
// skipped rather than fatal; a final line without its newline is torn
// even when it parses. A malformed line anywhere else is an
// error: that is corruption, not a crash artifact. valid, when
// non-nil, extends "malformed" to records that decode but fail the
// caller's shape check (e.g. a required sub-object missing).
func Load[T any](path string, valid func(*T) bool) ([]T, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: opening %s: %w", path, err)
	}
	defer f.Close()

	var records []T
	var badLine int // 1-based line number of the first malformed line
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	sc.Split(scanTerminated)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		if badLine != 0 {
			// a malformed line followed by more data is corruption
			return nil, fmt.Errorf("ckpt: %s: malformed record at line %d", path, badLine)
		}
		var rec T
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || (valid != nil && !valid(&rec)) {
			badLine = line
			continue
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: reading %s: %w", path, err)
	}
	return records, nil
}

// scanTerminated splits lines like bufio.ScanLines but drops a final
// line that has no newline: the tail Open cuts off.
func scanTerminated(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF {
		return len(data), nil, nil
	}
	return 0, nil, nil
}
