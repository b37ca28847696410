package endmodel

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
)

// TestTrainPredictDigestPinned pins the exact bits of a fixed-seed
// Train + PredictProbaAll run and of the trained model's serialized form.
// The digests were recorded before the weights moved to the feature-major
// layout; any change to the accumulation order of training or prediction,
// or to the stored JSON, shows up here as a digest mismatch.
func TestTrainPredictDigestPinned(t *testing.T) {
	cases := []struct {
		name              string
		weighted          bool
		proba, marshalled string
	}{
		{"unweighted", false,
			"7000c25eebb6a021bd75c8ec362d38b9ac9af61d574a7fd5b4e7dba6e2b9af49",
			"0f9f387c72c3f64a121a6792ebe096995fd675c0d0a3cf680fdf860b7f49b88e"},
		{"weighted", true,
			"2ba3eaa239804bdbc0620f441c413a2888db4c870518d5fca27626f9f540b6e4",
			"10c9774e4c1779509ac55e56dcc95ad47e1af9ec093051046c39fbafa8b8bcbd"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			X, Y := gaussianBlobs(11, 1500, 4, 256, 0.2)
			var weights []float64
			if tc.weighted {
				weights = make([]float64, len(X))
				for i := range weights {
					weights[i] = 0.25 + float64(i%7)/8
				}
			}
			m, err := Train(X, oneHot(Y, 4), weights, 4, 256, TrainConfig{Seed: 11, Epochs: 3})
			if err != nil {
				t.Fatal(err)
			}
			m.SetParallelism(3)
			h := sha256.New()
			var buf [8]byte
			for _, row := range m.PredictProbaAll(X) {
				for _, p := range row {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
					h.Write(buf[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.proba {
				t.Errorf("PredictProbaAll digest = %s, want %s", got, tc.proba)
			}
			data, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.marshalled {
				t.Errorf("MarshalJSON digest = %s, want %s", got, tc.marshalled)
			}
		})
	}
}
