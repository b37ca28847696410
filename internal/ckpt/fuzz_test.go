package ckpt

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzCkptLoad feeds arbitrary file bytes to the journal loader, which
// every resume (experiment grids, growth cycles) reads back after a
// crash. Load must never panic, Open must leave the file empty or
// newline-terminated, and cutting the torn tail must not change what
// Load returns: the same records, or an error both times.
func FuzzCkptLoad(f *testing.F) {
	for _, seed := range []string{
		"",
		"{\"n\":1}\n{\"n\":2}\n",
		"{\"n\":1}\n{\"n\":2",
		"{\"n\":1}\n{\"n\":2}",
		"{\"n\":1}\nnot json\n{\"n\":3}\n",
		"{\"n\":1}\nnot json\n",
		"{\"n\":-1}\n{\"n\":2}\n",
		"\n\n{\"n\":1,\"name\":\"a\\nb\"}\n\n",
		"{\"n\":1}\r\n{\"n\":2}\r\n",
		"{\"n\":\"x\"}\n",
	} {
		f.Add([]byte(seed))
	}
	valid := func(r *rec) bool { return r.N >= 0 }
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "j.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before, errBefore := Load(path, valid)

		w, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		cut, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(cut) > 0 && cut[len(cut)-1] != '\n' {
			t.Fatalf("Open left a torn tail: %q", cut)
		}
		if !bytes.HasPrefix(data, cut) {
			t.Fatalf("Open rewrote committed bytes: %q -> %q", data, cut)
		}

		after, errAfter := Load(path, valid)
		if (errBefore == nil) != (errAfter == nil) {
			t.Fatalf("Load error changed across the cut: before %v, after %v", errBefore, errAfter)
		}
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("Load records changed across the cut: before %+v, after %+v", before, after)
		}
	})
}
