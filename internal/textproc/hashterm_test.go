package textproc

import (
	"hash/fnv"
	"math/rand"
	"testing"
)

// referenceHashTerm is the pre-inline implementation: the stdlib hasher,
// one heap allocation per call. Kept as the oracle for the zero-alloc
// rewrite.
func referenceHashTerm(dim int, term string) (int32, float32) {
	h := fnv.New32a()
	h.Write([]byte(term))
	sum := h.Sum32()
	bucket := int32(sum % uint32(dim))
	sign := float32(1)
	if sum&0x80000000 != 0 {
		sign = -1
	}
	return bucket, sign
}

func TestHashTermMatchesReference(t *testing.T) {
	f := NewFeaturizer(DefaultFeatureDim)
	terms := []string{"", "a", "cash", "prize", "subscribe", "nasa", "Ωμέγα", "1234567890"}
	rng := rand.New(rand.NewSource(3))
	letters := "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := 0; i < 500; i++ {
		n := rng.Intn(24)
		b := make([]byte, n)
		for j := range b {
			b[j] = letters[rng.Intn(len(letters))]
		}
		terms = append(terms, string(b))
	}
	for _, term := range terms {
		key := f.hashKey(term)
		wantB, wantS := referenceHashTerm(f.Dim, term)
		if int32(key>>1) != wantB || key&1 == 1 != (wantS < 0) {
			t.Fatalf("hashKey(%q) = %#x, reference (%d, %v)", term, key, wantB, wantS)
		}
	}
}

func TestHashTermZeroAlloc(t *testing.T) {
	f := NewFeaturizer(DefaultFeatureDim)
	var sink uint32
	allocs := testing.AllocsPerRun(1000, func() {
		sink += f.hashKey("subscribe to the channel")
	})
	if allocs != 0 {
		t.Fatalf("hashKey allocates %v times per call, want 0", allocs)
	}
	_ = sink
}

func TestTransformAllParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vocab := []string{"alpha", "beta", "cash", "free", "prize", "song", "goal"}
	corpus := make([][]string, 300)
	for i := range corpus {
		doc := make([]string, 3+rng.Intn(15))
		for j := range doc {
			doc[j] = vocab[rng.Intn(len(vocab))]
		}
		corpus[i] = doc
	}
	seq := NewFeaturizer(256)
	if err := seq.Fit(corpus); err != nil {
		t.Fatal(err)
	}
	want := seq.TransformAll(corpus)
	for _, workers := range []int{2, 4, 9} {
		parF := NewFeaturizer(256)
		parF.Workers = workers
		if err := parF.Fit(corpus); err != nil {
			t.Fatal(err)
		}
		got := parF.TransformAll(corpus)
		for i := range want {
			if len(got[i].Idx) != len(want[i].Idx) {
				t.Fatalf("workers=%d: vector %d has %d terms, want %d", workers, i, len(got[i].Idx), len(want[i].Idx))
			}
			for t2 := range want[i].Idx {
				if got[i].Idx[t2] != want[i].Idx[t2] || got[i].Val[t2] != want[i].Val[t2] {
					t.Fatalf("workers=%d: vector %d diverges at term %d", workers, i, t2)
				}
			}
		}
	}
}
