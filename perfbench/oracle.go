package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"unn"
	"unn/internal/geom"
	"unn/internal/quantify"
)

// exactTol bounds the error of an exact answer: π sums and per-entry
// probabilities, and relative expected distances.
const exactTol = 1e-9

// probTol is the per-entry π tolerance of a workload's handle: exact
// backends answer within rounding; mix_drift's pinned plan answers π by
// spiral search, within the default additive ε = 0.02.
func probTol(b *bench) float64 {
	if b.w.name == "mix_drift" {
		return 0.02 + exactTol
	}
	return exactTol
}

// verify checks the loop's sampled answers against the brute oracle over
// the dataset state each query saw (serve_churn replays the loop's
// mutations on a mirror, in the order they applied), and returns one
// line per wrong answer.
func verify(b *bench, lr *loopResult) []string {
	var wrong []string
	for i, m := range lr.muts {
		if !m.failed && m.gotN != m.wantN {
			wrong = append(wrong, fmt.Sprintf("mutation %d: live count %d after it, want %d", i, m.gotN, m.wantN))
		}
	}
	checks := slices.Clone(lr.checks)
	sort.SliceStable(checks, func(i, j int) bool { return checks[i].version < checks[j].version })
	state := b.pts
	up := unn.FromDiscrete(state)
	applied := 0
	tol := probTol(b)
	for _, c := range checks {
		if applied < c.version {
			if applied == 0 {
				state = slices.Clone(state)
			}
			for ; applied < c.version; applied++ {
				if m := lr.muts[applied]; m.insert != nil {
					state = append(state, m.insert)
				} else {
					state = slices.Delete(state, m.del, m.del+1)
				}
			}
			up = unn.FromDiscrete(state)
		}
		if msg := checkAnswer(state, up, c, tol); msg != "" {
			wrong = append(wrong, fmt.Sprintf("%s at (%.6f, %.6f), request %#x: %s", c.kind, c.q.X, c.q.Y, c.req, msg))
		}
	}
	return wrong
}

// checkAnswer compares one answer with the oracle over pts ("" if right).
func checkAnswer(pts []*unn.Discrete, up []unn.Uncertain, c check, tol float64) string {
	nz := unn.NonzeroNN(up, c.q)
	if len(nz) == 0 {
		return "the oracle's NN≠0 is empty"
	}
	switch c.kind {
	case kNonzero:
		if len(c.nonzero) == 0 {
			return "empty NN≠0"
		}
		got := slices.Sorted(slices.Values(c.nonzero))
		if !slices.Equal(got, nz) {
			return fmt.Sprintf("NN≠0 %v, oracle %v", clip(got), clip(nz))
		}
	case kExpected:
		best, bestD := bruteExpected(pts, c.q)
		if c.expI < 0 || c.expI >= len(pts) {
			return fmt.Sprintf("E[d] argmin %d out of range (oracle %d)", c.expI, best)
		}
		d := expectedDist(pts[c.expI], c.q)
		if d > bestD*(1+exactTol) {
			return fmt.Sprintf("E[d] argmin %d at %.12g, oracle %d at %.12g", c.expI, d, best, bestD)
		}
		if math.Abs(c.expD-d) > exactTol*max(1, d) {
			return fmt.Sprintf("E[d] of %d reported %.12g, is %.12g", c.expI, c.expD, d)
		}
	case kProbs, kTopK:
		exact := exactProbs(pts, nz, c.q)
		sum := 0.0
		byIndex := map[int]float64{}
		for _, p := range exact {
			sum += p.P
			byIndex[p.I] = p.P
		}
		if math.Abs(sum-1) > exactTol {
			return fmt.Sprintf("the oracle's Σπ = %.12g", sum)
		}
		if c.kind == kProbs {
			return checkProbs(c.probs, byIndex, tol)
		}
		return checkTopK(c.probs, exact, byIndex, tol)
	}
	return ""
}

func checkProbs(got []quantify.Prob, exact map[int]float64, tol float64) string {
	sum := 0.0
	seen := map[int]bool{}
	for _, p := range got {
		sum += p.P
		seen[p.I] = true
		if math.Abs(p.P-exact[p.I]) > tol {
			return fmt.Sprintf("π_%d = %.12g, oracle %.12g", p.I, p.P, exact[p.I])
		}
	}
	for i, p := range exact {
		if !seen[i] && p > tol {
			return fmt.Sprintf("π_%d missing, oracle %.12g", i, p)
		}
	}
	if math.Abs(sum-1) > tol {
		return fmt.Sprintf("Σπ = %.12g", sum)
	}
	return ""
}

// checkTopK accepts an answer whose j-th entry has the exact π of its
// index and the j-th largest exact π (so ties may come in either order).
// Entries within tol of zero may be present or absent.
func checkTopK(got, exact []quantify.Prob, byIndex map[int]float64, tol float64) string {
	ranked := slices.Clone(exact)
	sort.SliceStable(ranked, func(i, j int) bool {
		if ranked[i].P != ranked[j].P {
			return ranked[i].P > ranked[j].P
		}
		return ranked[i].I < ranked[j].I
	})
	want := 0
	for _, p := range ranked[:min(topK, len(ranked))] {
		if p.P > tol {
			want++
		}
	}
	if len(got) > topK || len(got) < want {
		return fmt.Sprintf("top-%d has %d entries, oracle %d above %g", topK, len(got), want, tol)
	}
	for j, p := range got {
		rank := 0.0
		if j < len(ranked) {
			rank = ranked[j].P
		}
		if math.Abs(p.P-byIndex[p.I]) > tol || math.Abs(p.P-rank) > tol {
			return fmt.Sprintf("top-%d entry %d is π_%d = %.12g, oracle π_%d = %.12g, rank-%d π = %.12g",
				topK, j, p.I, p.P, p.I, byIndex[p.I], j, rank)
		}
	}
	return ""
}

// exactProbs is quantify.ExactPositive over the NN≠0 members only, with
// their global indices: a point outside NN≠0 has every location at least
// Δ = min_i max-dist_i from q, where the nearest neighbour is already
// decided, so it changes no π. This keeps the oracle O(|NN≠0|·k log)
// instead of sorting every location of the dataset.
func exactProbs(pts []*unn.Discrete, nz []int, q geom.Point) []quantify.Prob {
	sub := make([]*unn.Discrete, len(nz))
	for j, i := range nz {
		sub[j] = pts[i]
	}
	ps := quantify.ExactPositive(sub, q)
	for j := range ps {
		ps[j].I = nz[ps[j].I]
	}
	return ps
}

func expectedDist(p *unn.Discrete, q geom.Point) float64 {
	e := 0.0
	for j, l := range p.Locs {
		e += p.W[j] * math.Hypot(q.X-l.X, q.Y-l.Y)
	}
	return e
}

func bruteExpected(pts []*unn.Discrete, q geom.Point) (int, float64) {
	best, bestD := -1, math.Inf(1)
	for i, p := range pts {
		if d := expectedDist(p, q); d < bestD {
			best, bestD = i, d
		}
	}
	return best, bestD
}

func clip(xs []int) []int {
	if len(xs) > 12 {
		return xs[:12]
	}
	return xs
}
