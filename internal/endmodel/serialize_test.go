package endmodel

import (
	"encoding/json"
	"testing"
)

func TestModelJSONRoundTrip(t *testing.T) {
	X, Y := gaussianBlobs(1, 500, 3, 64, 0.1)
	m, err := Train(X, oneHot(Y, 3), nil, 3, 64, TrainConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back LogisticRegression
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Dim != m.Dim || back.K != m.K {
		t.Fatalf("shape = %dx%d", back.K, back.Dim)
	}
	// identical predictions
	origPred := m.Predict(X)
	backPred := back.Predict(X)
	for i := range origPred {
		if origPred[i] != backPred[i] {
			t.Fatalf("prediction %d differs after round trip", i)
		}
	}
	origProba := m.PredictProba(X[0])
	backProba := back.PredictProba(X[0])
	for c := range origProba {
		if origProba[c] != backProba[c] {
			t.Fatal("probabilities differ after round trip")
		}
	}
}

func TestModelJSONValidation(t *testing.T) {
	var m LogisticRegression
	cases := []string{
		`{"dim": 0, "k": 2, "bias": [0,0], "indices": [[],[]], "values": [[],[]]}`,
		`{"dim": 4, "k": 1, "bias": [0], "indices": [[]], "values": [[]]}`,
		`{"dim": 4, "k": 2, "bias": [0], "indices": [[],[]], "values": [[],[]]}`,
		`{"dim": 4, "k": 2, "bias": [0,0], "indices": [[1],[]], "values": [[],[]]}`,
		`{"dim": 4, "k": 2, "bias": [0,0], "indices": [[9],[]], "values": [[1],[]]}`,
		// a dense matrix too large to allocate, declared in a few bytes
		`{"dim": 1000000000000, "k": 2, "bias": [0,0], "indices": [[],[]], "values": [[],[]]}`,
		// finite parameters whose logit overflows to +Inf (NaN probabilities)
		`{"dim": 2, "k": 2, "bias": [1.5e308,0], "indices": [[0],[]], "values": [[1.5e308],[]]}`,
		`{"dim": 2, "k": 2, "bias": [0,1e301], "indices": [[],[]], "values": [[],[]]}`,
		`not json at all`,
	}
	for _, c := range cases {
		if err := json.Unmarshal([]byte(c), &m); err == nil {
			t.Errorf("accepted invalid model %q", c)
		}
	}
}

// TestModelShapeCap checks that the Dim*K cap a decoded model is held to
// is the one Train enforces: a model at the cap survives the save/load
// round trip, and one a feature wider is refused at train time.
func TestModelShapeCap(t *testing.T) {
	const k = 4
	X, Y := gaussianBlobs(1, 40, k, 64, 0.1)
	m, err := Train(X, oneHot(Y, k), nil, k, maxWeights/k, TrainConfig{Seed: 1, Epochs: 1})
	if err != nil {
		t.Fatalf("train at the cap: %v", err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back LogisticRegression
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("load at the cap: %v", err)
	}
	if back.Dim != m.Dim || len(back.W) != len(m.W) {
		t.Fatalf("shape = %dx%d with %d weights", back.K, back.Dim, len(back.W))
	}
	for i := range m.W {
		if back.W[i] != m.W[i] {
			t.Fatalf("weight %d differs after round trip", i)
		}
	}
	for _, kk := range []int{2, k} {
		X, Y := gaussianBlobs(1, 40, kk, 64, 0.1)
		if _, err := Train(X, oneHot(Y, kk), nil, kk, maxWeights/kk+1, TrainConfig{Seed: 1, Epochs: 1}); err == nil {
			t.Fatalf("k=%d: train above the cap accepted", kk)
		}
	}
}
