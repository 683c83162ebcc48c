package sat

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// scanPick is the linear-scan branching rule the variable-order heap
// replaced, kept as its oracle: among the unassigned variables of the
// static order, the first one with strictly greater activity than every
// earlier one.
func (s *solver) scanPick() int {
	var order []int
	for v, r := range s.rank {
		if r >= 0 {
			order = append(order, v)
		}
	}
	sort.Slice(order, func(a, b int) bool { return s.rank[order[a]] < s.rank[order[b]] })
	best, bestAct := -1, -1.0
	for _, v := range order {
		if s.assign[v] < 0 && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	return best
}

// checkHeap verifies the heap's structural invariants: positions and
// heapIdx agree, every parent precedes its children, every unassigned
// ranked variable but the just-picked one is present, and no unranked
// variable ever is.
func (s *solver) checkHeap(picked int) error {
	for i, v := range s.heap {
		if s.heapIdx[v] != int32(i) {
			return fmt.Errorf("heap[%d] = %d but heapIdx = %d", i, v, s.heapIdx[v])
		}
		if s.rank[v] < 0 {
			return fmt.Errorf("unranked variable %d in heap", v)
		}
		if i > 0 && s.before(v, s.heap[(i-1)/2]) {
			return fmt.Errorf("heap[%d] = %d precedes its parent %d", i, v, s.heap[(i-1)/2])
		}
	}
	for v := range s.rank {
		if s.rank[v] >= 0 && s.assign[v] < 0 && s.heapIdx[v] < 0 && v != picked {
			return fmt.Errorf("unassigned ranked variable %d missing from heap", v)
		}
	}
	return nil
}

// pickStats counts what the oracle hook observed.
type pickStats struct {
	decisions int // decisions cross-checked (including the final -1)
}

// checkPicks installs testHookPick for the rest of the test: at every
// decision the heap's choice must equal the scan oracle's and the heap
// invariants must hold.
func checkPicks(t *testing.T) *pickStats {
	t.Helper()
	st := &pickStats{}
	testHookPick = func(s *solver, v int) {
		st.decisions++
		if want := s.scanPick(); v != want {
			t.Fatalf("decision %d: heap picked %d, scan picks %d", st.decisions, v, want)
		}
		if err := s.checkHeap(v); err != nil {
			t.Fatalf("decision %d: %v", st.decisions, err)
		}
	}
	t.Cleanup(func() { testHookPick = nil })
	return st
}

// TestHeapPicksMatchScanSolve cross-checks every decision of cold and
// warm-seeded searches over seeded random formulas, satisfiable and not,
// with restarts and budget aborts.
func TestHeapPicksMatchScanSolve(t *testing.T) {
	st := checkPicks(t)
	rng := rand.New(rand.NewSource(20030501))
	for i := 0; i < 80; i++ {
		vars := 20 + rng.Intn(80)
		f := randomCNF(rng, vars, vars*(40+rng.Intn(5))/10, 3)
		for v := 0; v < vars; v += 1 + rng.Intn(4) {
			f.Prefer(v, rng.Intn(2) == 0)
		}
		Solve(f, Limits{MaxBacktracks: 400})
	}
	for seed := int64(0); seed < 12; seed++ {
		f := hardFormula(seed, 50, 215)
		cold := DPLLEngine{}.SolveWarm(f, Limits{ExportStable: true}, nil)
		if len(cold.StableLearned) == 0 {
			continue
		}
		DPLLEngine{}.SolveWarm(f, Limits{}, &Warm{Clauses: cold.StableLearned})
	}
	if st.decisions < 5000 {
		t.Fatalf("only %d decisions cross-checked", st.decisions)
	}
}

// TestHeapPicksMatchScanIncremental cross-checks every decision along
// Incremental chains: columns toggled dormant with SetInert, an active
// permanent prefix that shrinks and regrows, a retired group (guard and
// auxiliaries inert) per step, and warm seeds. Inert and guard variables
// have no rank, so checkHeap also proves they never enter the heap.
func TestHeapPicksMatchScanIncremental(t *testing.T) {
	st := checkPicks(t)
	var conflicts int64
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewSource(int64(9100 + trial)))
		const cols = 3
		inc := NewIncremental()
		var colVars [cols][]int
		var colEnd [cols]int
		for c := 0; c < cols; c++ {
			for nv := 20 + rng.Intn(10); len(colVars[c]) < nv; {
				v := inc.NewVar()
				colVars[c] = append(colVars[c], v)
				if rng.Intn(3) == 0 {
					inc.Prefer(v, rng.Intn(2) == 0)
				}
			}
			var live []int
			for d := 0; d <= c; d++ {
				live = append(live, colVars[d]...)
			}
			for i := 0; i < 33*len(colVars[c])/10; i++ {
				lits := make([]Lit, 3)
				for j := range lits {
					lits[j] = Lit(2*live[rng.Intn(len(live))] + rng.Intn(2))
				}
				inc.AddPermanent(lits...)
			}
			colEnd[c] = inc.NumPermanent()
		}
		for _, m := range []int{3, 2, 1, 3, 2, 3} {
			for c := 0; c < cols; c++ {
				for _, v := range colVars[c] {
					inc.SetInert(v, c >= m)
				}
			}
			var live []int
			for c := 0; c < m; c++ {
				live = append(live, colVars[c]...)
			}
			inc.BeginGroup()
			for i := 0; i < 4; i++ {
				live = append(live, inc.NewGroupVar())
			}
			for i, nc := 0, 6+rng.Intn(10); i < nc; i++ {
				lits := make([]Lit, 3)
				for j := range lits {
					lits[j] = Lit(2*live[rng.Intn(len(live))] + rng.Intn(2))
				}
				inc.AddGroup(lits...)
			}
			// Two-literal seeds tying a live variable to a dormant one.
			// They are not implied (verdicts are not checked here); they
			// put inert variables on the trail above level 0, and those
			// must stay out of the heap as they stay out of the scan.
			var seeds [][]Lit
			for i := 0; m < cols && i < 6; i++ {
				dormant := colVars[m+rng.Intn(cols-m)]
				seeds = append(seeds, []Lit{
					Lit(2*live[rng.Intn(len(live))] + rng.Intn(2)),
					Lit(2*dormant[rng.Intn(len(dormant))] + rng.Intn(2)),
				})
			}
			r := inc.SolveStep(colEnd[m-1], Limits{MaxBacktracks: 300}, &Warm{Clauses: seeds})
			conflicts += r.Backtracks
		}
	}
	if st.decisions < 1000 {
		t.Fatalf("only %d decisions cross-checked", st.decisions)
	}
	if conflicts < 200 {
		t.Fatalf("only %d conflicts along the chains", conflicts)
	}
}

// TestHeapRescaleTies drives the search through activity rescales with
// activities planted so that some distinct values underflow into ties:
// the heap, ordered by the pre-rescale values, must be rebuilt so that
// rank breaks the new ties as the scan does.
func TestHeapRescaleTies(t *testing.T) {
	st := checkPicks(t)
	for seed := int64(0); seed < 6; seed++ {
		f := hardFormula(100+seed, 60, 258)
		s := newSolver(f)
		for v := 0; v < f.NumVars; v += 3 {
			// 1e-300·k·1e-100 underflows to zero for every k: distinct
			// now, tied after the first rescale.
			s.activity[v] = 1e-300 * float64(1+v)
		}
		s.rebuildHeap()
		s.actInc = 5e99
		before := st.decisions
		s.run(Limits{MaxBacktracks: 2000})
		// actInc only ever shrinks by a rescale.
		if s.actInc >= 5e99 || st.decisions == before {
			t.Fatalf("seed %d: no rescale during the search (actInc %g, %d decisions)", seed, s.actInc, st.decisions-before)
		}
	}
}
