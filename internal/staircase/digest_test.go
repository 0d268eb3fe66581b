package staircase

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"soral/internal/lp"
	"soral/internal/model"
	"soral/internal/obs/journal"
)

// planDigestCases builds the instances behind testdata/plan_digests.json:
// a two-day (48-slot) horizon with the tier-1 component switched on, and a
// short window whose last slot is pinned to a fixed end decision.
func planDigestCases(t *testing.T) map[string]*model.Layout {
	t.Helper()
	rng := rand.New(rand.NewSource(130))
	n := model.RandomNetwork(rng, 2, 3, 2, 10)
	capT1 := []float64{40, 50, 60}
	reconfT1 := []float64{2, 3, 4}
	if err := n.EnableTier1(capT1, reconfT1); err != nil {
		t.Fatal(err)
	}
	multiday, err := model.BuildP1(n, model.RandomInputs(rng, n, 48), nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	rng = rand.New(rand.NewSource(131))
	n = model.RandomNetwork(rng, 2, 2, 2, 10)
	pin := model.NewZeroDecision(n)
	for p := range pin.X {
		pin.X[p], pin.Y[p] = 3, 3
	}
	endPin, err := model.BuildP1(n, model.RandomInputs(rng, n, 6), nil, pin)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*model.Layout{"tier1_multiday": multiday, "end_pin": endPin}
}

// TestPlanDigestsPinned pins the offline plans bit for bit: the digests in
// testdata/plan_digests.json were recorded before the block-tridiagonal
// factorization learned to skip the structurally zero coupling rows, so any
// change to the operation order of the staircase linear algebra shows here,
// at every worker count.
func TestPlanDigestsPinned(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "plan_digests.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	cases := planDigestCases(t)
	if len(want) != len(cases) {
		t.Fatalf("fixture has %d digests, want %d", len(want), len(cases))
	}
	for name, l := range cases {
		for _, w := range []int{1, 2} {
			sol, err := Solve(l.Prob, l.SlotOfCons, l.SlotOfVar, l.W, lp.Options{Workers: w})
			if err != nil || sol.Status != lp.Optimal {
				t.Fatalf("%s workers=%d: %v %v", name, w, sol, err)
			}
			var groups [][]float64
			for _, d := range l.ExtractDecisions(sol.X) {
				groups = append(groups, d.X, d.Y, d.Z)
			}
			if got := journal.Digest(groups...); got != want[name] {
				t.Errorf("%s workers=%d: plan digest %s, fixture %s", name, w, got, want[name])
			}
		}
	}
}
