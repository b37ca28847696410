package textproc

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// referenceTransform is the map-accumulating Transform the sorted-key
// kernel replaced: a float32 ±1 sum per bucket, then sub-linear TF × IDF
// and L2 normalization in ascending bucket order. It is the oracle the
// production featurizer must match bit for bit.
func referenceTransform(f *Featurizer, tokens []string) *SparseVector {
	acc := make(map[int32]float32, len(tokens))
	for _, t := range tokens {
		b, sign := referenceHashTerm(f.Dim, t)
		acc[b] += sign
	}
	for b, tf := range acc {
		if tf == 0 {
			delete(acc, b)
			continue
		}
		mag := float32(1 + math.Log(math.Abs(float64(tf))))
		if tf < 0 {
			mag = -mag
		}
		acc[b] = mag * f.idf[b]
	}
	v := fromMap(acc)
	v.Normalize()
	return v
}

// fromMap builds an index-sorted SparseVector from an accumulation map.
func fromMap(m map[int32]float32) *SparseVector {
	v := &SparseVector{
		Idx: make([]int32, 0, len(m)),
		Val: make([]float32, 0, len(m)),
	}
	for idx := range m {
		v.Idx = append(v.Idx, idx)
	}
	sort.Slice(v.Idx, func(i, j int) bool { return v.Idx[i] < v.Idx[j] })
	for _, idx := range v.Idx {
		v.Val = append(v.Val, m[idx])
	}
	return v
}

// sameBits reports whether two vectors have identical indices and
// bit-identical values.
func sameBits(a, b *SparseVector) bool {
	if len(a.Idx) != len(b.Idx) || len(a.Val) != len(b.Val) {
		return false
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || math.Float32bits(a.Val[i]) != math.Float32bits(b.Val[i]) {
			return false
		}
	}
	return true
}

// findCancelling returns two distinct terms that hash to the same bucket
// with opposite signs, so a document holding one of each has tf == 0
// there.
func findCancelling(t *testing.T, f *Featurizer) (string, string) {
	t.Helper()
	pos := map[int32]string{}
	neg := map[int32]string{}
	for i := 0; i < 10000; i++ {
		term := "w" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + string(rune('0'+i/26%10)) + string(rune('a'+i/260%26))
		b, sign := referenceHashTerm(f.Dim, term)
		if sign > 0 {
			if n, ok := neg[b]; ok {
				return term, n
			}
			pos[b] = term
		} else {
			if p, ok := pos[b]; ok {
				return p, term
			}
			neg[b] = term
		}
	}
	t.Fatal("no cancelling pair found")
	return "", ""
}

func oracleCorpus(t *testing.T, f *Featurizer) [][]string {
	p, n := findCancelling(t, f)
	corpus := [][]string{
		{},                          // empty document
		{p, n},                      // every bucket cancels: empty row
		{p, n, "alpha"},             // one cancelled bucket beside a live one
		{p, p, p, n},                // |tf| > 1 after partial cancellation
		{n, n, "beta", "beta"},      // negative tf of magnitude 2
		{"gamma", "gamma", "gamma"}, // repeated token
	}
	rng := rand.New(rand.NewSource(17))
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", p, n, "zeta", "eta"}
	for i := 0; i < 200; i++ {
		doc := make([]string, rng.Intn(30))
		for j := range doc {
			doc[j] = vocab[rng.Intn(len(vocab))]
		}
		corpus = append(corpus, doc)
	}
	return corpus
}

func TestTransformMatchesReference(t *testing.T) {
	f := NewFeaturizer(32)
	if err := f.Fit([][]string{{"alpha", "beta"}, {"gamma"}, {"delta", "alpha"}}); err != nil {
		t.Fatal(err)
	}
	corpus := oracleCorpus(t, f)
	if got := f.Transform(corpus[1]); got.NNZ() != 0 {
		t.Fatalf("fully cancelled document has %d entries", got.NNZ())
	}
	if got := f.Transform(corpus[3]); got.NNZ() != 1 {
		t.Fatalf("partially cancelled document has %d entries, want 1", got.NNZ())
	}
	for i, doc := range corpus {
		want := referenceTransform(f, doc)
		if got := f.Transform(doc); !sameBits(got, want) {
			t.Fatalf("Transform(doc %d %q) = %+v, reference %+v", i, doc, got, want)
		}
	}
	for _, workers := range []int{1, 4} {
		f.Workers = workers
		for i, got := range f.TransformAll(corpus) {
			if want := referenceTransform(f, corpus[i]); !sameBits(got, want) {
				t.Fatalf("workers=%d: TransformAll row %d = %+v, reference %+v", workers, i, got, want)
			}
		}
	}
}

func TestTransformAllRowsAreIsolated(t *testing.T) {
	f := NewFeaturizer(64)
	corpus := [][]string{{"alpha", "beta", "beta"}, {"gamma", "delta"}, {"alpha"}}
	if err := f.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		f.Workers = workers
		rows := f.TransformAll(corpus)
		next := *rows[1]
		next.Idx = append([]int32(nil), next.Idx...)
		next.Val = append([]float32(nil), next.Val...)
		rows[0].Idx = append(rows[0].Idx, 63, 63, 63)
		rows[0].Val = append(rows[0].Val, 9, 9, 9)
		if !sameBits(rows[1], &next) {
			t.Fatalf("workers=%d: appending to row 0 changed row 1 to %+v", workers, rows[1])
		}
	}
}
