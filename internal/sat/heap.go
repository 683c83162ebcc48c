package sat

import "slices"

// The branching order is a binary max-heap of candidate variables (the
// MiniSat variable-order heap), keyed by activity descending and then by
// rank ascending. A variable's rank is its position in the static order:
// the candidates sorted once by initial activity descending, index
// ascending. The key is a strict total order, and it is exactly the
// preference of a linear scan over the static order that keeps the first
// strictly more active unassigned variable; so pickVar makes the scan's
// choice at every decision in O(log n) instead of O(n).
//
// Invariant: every unassigned variable with a rank is in the heap.
// Assigned variables may linger (lazy deletion) until pickVar pops them
// off the top; cancelUntil reinserts variables as they become unassigned.
// Variables without a rank (Incremental's inert variables and guard)
// never enter it.

// initOrder sorts the candidates in s.heap (their activities already set)
// into the static order and ranks them; an array sorted by the heap key
// is already a valid heap. rank and heapIdx must have NumVars elements;
// variables outside s.heap get no rank.
func (s *solver) initOrder() {
	slices.SortFunc(s.heap, func(a, b int32) int {
		if s.activity[a] != s.activity[b] {
			if s.activity[a] > s.activity[b] {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	for v := range s.rank {
		s.rank[v] = -1
		s.heapIdx[v] = -1
	}
	for i, v := range s.heap {
		s.rank[v] = int32(i)
		s.heapIdx[v] = int32(i)
	}
}

// before reports whether a is preferred to b as the next decision.
func (s *solver) before(a, b int32) bool {
	if s.activity[a] != s.activity[b] {
		return s.activity[a] > s.activity[b]
	}
	return s.rank[a] < s.rank[b]
}

func (s *solver) siftUp(i int) {
	v := s.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !s.before(v, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		s.heapIdx[s.heap[i]] = int32(i)
		i = p
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

func (s *solver) siftDown(i int) {
	v := s.heap[i]
	n := len(s.heap)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && s.before(s.heap[c+1], s.heap[c]) {
			c++
		}
		if !s.before(s.heap[c], v) {
			break
		}
		s.heap[i] = s.heap[c]
		s.heapIdx[s.heap[i]] = int32(i)
		i = c
	}
	s.heap[i] = v
	s.heapIdx[v] = int32(i)
}

// heapInsert adds v unless it is already present or has no rank. An
// unranked variable can still be assigned by propagation (a warm seed may
// mention an inert variable); like the scan, the heap never offers it.
func (s *solver) heapInsert(v int) {
	if s.heapIdx[v] >= 0 || s.rank[v] < 0 {
		return
	}
	s.heap = append(s.heap, int32(v))
	s.siftUp(len(s.heap) - 1)
}

// heapPop removes and returns the most preferred variable.
func (s *solver) heapPop() int {
	top := s.heap[0]
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap = s.heap[:last]
	s.heapIdx[top] = -1
	if last > 0 {
		s.siftDown(0)
	}
	return int(top)
}

// rebuildHeap restores the heap property after a rescale: scaling every
// activity by the same factor keeps their order but can round distinct
// activities into ties, which rank must then break.
func (s *solver) rebuildHeap() {
	for i := len(s.heap)/2 - 1; i >= 0; i-- {
		s.siftDown(i)
	}
}

// pickVar returns the unassigned variable the static-order scan would
// choose (highest activity, lowest rank), removing it from the heap, or
// -1 when every ranked variable is assigned.
func (s *solver) pickVar() int {
	for len(s.heap) > 0 {
		if v := s.heapPop(); s.assign[v] < 0 {
			return v
		}
	}
	return -1
}
