package ckpt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec struct {
	N    int    `json:"n"`
	Name string `json:"name,omitempty"`
}

func TestLoadMissingFile(t *testing.T) {
	recs, err := Load[rec](filepath.Join(t.TempDir(), "nope.jsonl"), nil)
	if err != nil {
		t.Fatalf("missing file must load as empty, got %v", err)
	}
	if recs != nil {
		t.Fatalf("missing file must load as nil, got %v", recs)
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	w, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(rec{N: i, Name: "r"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := Load[rec](path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.N != i {
			t.Fatalf("record %d: N=%d", i, r.N)
		}
	}
}

func TestAppendReopens(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	if err := Append(path, rec{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := Append(path, rec{N: 2}); err != nil {
		t.Fatal(err)
	}
	recs, err := Load[rec](path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].N != 1 || recs[1].N != 2 {
		t.Fatalf("got %+v", recs)
	}
}

func TestTornFinalLineSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	data := `{"n":1}` + "\n" + `{"n":2}` + "\n" + `{"n":3,"na`
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Load[rec](path, nil)
	if err != nil {
		t.Fatalf("torn final line must be tolerated, got %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

func TestMalformedMidFileFatal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	data := `{"n":1}` + "\n" + `{"n":2,"tor` + "\n" + `{"n":3}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Load[rec](path, nil)
	if err == nil {
		t.Fatal("malformed line followed by more data must be an error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error should name line 2: %v", err)
	}
}

func TestValidityCheckTreatedAsMalformed(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	// The final record decodes but fails the shape check: tolerated like
	// a torn line. The same record mid-file is corruption.
	data := `{"n":1,"name":"a"}` + "\n" + `{"n":2}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := func(r *rec) bool { return r.Name != "" }
	recs, err := Load[rec](path, valid)
	if err != nil {
		t.Fatalf("invalid final record must be tolerated, got %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}

	data = `{"n":2}` + "\n" + `{"n":1,"name":"a"}` + "\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load[rec](path, valid); err == nil {
		t.Fatal("invalid mid-file record must be an error")
	}
}

func TestBlankLinesIgnored(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	data := `{"n":1}` + "\n\n" + `{"n":2}` + "\n\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := Load[rec](path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
}

// tear appends a prefix of a record with no newline: the bytes a crash
// mid-append leaves behind.
func tear(t *testing.T, path, fragment string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(fragment); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func loadNs(t *testing.T, path string) []int {
	t.Helper()
	recs, err := Load[rec](path, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ns []int
	for _, r := range recs {
		ns = append(ns, r.N)
	}
	return ns
}

// TestTornTailRepairedOnAppend is the torn-write resume regression:
// Append(1), a torn write, Append(2), Append(3) must load [1 2 3]. Before
// Open cut the fragment, record 2 was glued onto it and lost, and record
// 3 turned the pair into a mid-file malformed line that failed every
// later Load.
func TestTornTailRepairedOnAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.jsonl")
	if err := Append(path, rec{N: 1}); err != nil {
		t.Fatal(err)
	}
	tear(t, path, `{"n":9,"na`)
	for _, n := range []int{2, 3} {
		if err := Append(path, rec{N: n}); err != nil {
			t.Fatal(err)
		}
	}
	if got := loadNs(t, path); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("loaded %v, want [1 2 3]", got)
	}
}

// TestTornTailCutOnOpen: Open cuts whatever follows the last newline — a
// fragment longer than one backwards read block, a fragment that happens
// to parse, a file holding only a fragment — and Load agrees with it
// beforehand, so a resumed process never replays a record Open erases.
func TestTornTailCutOnOpen(t *testing.T) {
	for name, fragment := range map[string]string{
		"long":     `{"n":9,"name":"` + strings.Repeat("x", 10000),
		"parsable": `{"n":9}`,
	} {
		for _, intact := range []int{0, 2} {
			path := filepath.Join(t.TempDir(), "c.jsonl")
			for n := 1; n <= intact; n++ {
				if err := Append(path, rec{N: n}); err != nil {
					t.Fatal(err)
				}
			}
			if intact == 0 {
				if err := os.WriteFile(path, nil, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			tear(t, path, fragment)
			if got := loadNs(t, path); len(got) != intact {
				t.Fatalf("%s/%d: loaded %v before repair, want %d intact records", name, intact, got, intact)
			}
			w, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append(rec{N: 7}); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			got := loadNs(t, path)
			if len(got) != intact+1 || got[intact] != 7 {
				t.Fatalf("%s/%d: loaded %v after repair, want %d intact records then 7", name, intact, got, intact)
			}
		}
	}
}
