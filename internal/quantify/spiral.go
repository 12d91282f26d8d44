package quantify

import (
	"fmt"
	"math"

	"unn/internal/geom"
	"unn/internal/kdtree"
	"unn/internal/quadtree"
	"unn/internal/uncertain"
)

// locSource abstracts the incremental nearest-location retrieval backend
// of the spiral search: the kd-tree by default, or the quadtree
// branch-and-bound the paper's §4.3 Remark (ii) suggests (citing
// [Har11]). Benchmark E11 compares them.
type locSource interface {
	Len() int
	Enumerate(q geom.Point) locStream
}

// locStream yields (distance, owner index, weight) triples in
// non-decreasing distance order.
type locStream interface {
	Next() (d float64, owner int, w float64, ok bool)
}

type kdSource struct{ t *kdtree.Tree }

func (s kdSource) Len() int { return s.t.Len() }
func (s kdSource) Enumerate(q geom.Point) locStream {
	return kdStream{e: s.t.Enumerate(q)}
}

type kdStream struct{ e *kdtree.Enumerator }

func (s kdStream) Next() (float64, int, float64, bool) {
	nb, ok := s.e.Next()
	return nb.Dist, nb.Item.ID, nb.Item.W, ok
}

type qtSource struct{ t *quadtree.Tree }

func (s qtSource) Len() int { return s.t.Len() }
func (s qtSource) Enumerate(q geom.Point) locStream {
	return qtStream{e: s.t.Enumerate(q)}
}

type qtStream struct{ e *quadtree.Enumerator }

func (s qtStream) Next() (float64, int, float64, bool) {
	nb, ok := s.e.Next()
	return nb.Dist, nb.Item.ID, nb.Item.W, ok
}

// Spiral is the deterministic structure of §4.3 / Theorem 4.7: all N
// locations are preprocessed into an incremental nearest-neighbor
// structure; a query retrieves only the m(ρ,ε) locations nearest to q and
// evaluates Eq. (2) restricted to that prefix. Lemma 4.6 guarantees
// ˆπ_i(q) ≤ π_i(q) ≤ ˆπ_i(q) + ε.
//
// ρ is the spread of location probabilities (Eq. (9)): the ratio of the
// largest to the smallest w over all locations of all points.
type Spiral struct {
	pts  []*uncertain.Discrete
	locs locSource
	rho  float64
	kMax int
	n    int
}

// NewSpiral preprocesses the locations into a kd-tree (O(N log N)).
func NewSpiral(pts []*uncertain.Discrete) (*Spiral, error) {
	return newSpiral(pts, false)
}

// NewSpiralQuadtree is NewSpiral with the quadtree branch-and-bound
// retrieval backend of §4.3 Remark (ii) ([Har11]).
func NewSpiralQuadtree(pts []*uncertain.Discrete) (*Spiral, error) {
	return newSpiral(pts, true)
}

func newSpiral(pts []*uncertain.Discrete, useQuadtree bool) (*Spiral, error) {
	if len(pts) == 0 {
		return nil, fmt.Errorf("quantify: empty point set")
	}
	kMax := 0
	for _, p := range pts {
		if p.K() > kMax {
			kMax = p.K()
		}
	}
	wLo, wHi := math.Inf(1), 0.0
	var kdItems []kdtree.Item
	var qtItems []quadtree.Item
	for i, p := range pts {
		for a, l := range p.Locs {
			w := p.W[a]
			wLo, wHi = math.Min(wLo, w), math.Max(wHi, w)
			if useQuadtree {
				qtItems = append(qtItems, quadtree.Item{P: l, W: w, ID: i})
			} else {
				kdItems = append(kdItems, kdtree.Item{P: l, W: w, ID: i})
			}
		}
	}
	var src locSource
	if useQuadtree {
		src = qtSource{t: quadtree.New(qtItems)}
	} else {
		src = kdSource{t: kdtree.New(kdItems)}
	}
	return &Spiral{
		pts:  pts,
		locs: src,
		rho:  wHi / wLo,
		kMax: kMax,
		n:    len(pts),
	}, nil
}

// Rho returns the spread of location probabilities.
func (s *Spiral) Rho() float64 { return s.rho }

// N returns the total number of stored locations.
func (s *Spiral) N() int { return s.locs.Len() }

// M returns m(ρ,ε) = ⌈ρk ln(ρ/ε)⌉ + k − 1, the retrieval budget of
// Theorem 4.7 (§1.3; the k−1 term covers P_i's own locations).
func (s *Spiral) M(eps float64) int {
	m := s.rho*float64(s.kMax)*math.Log(s.rho/eps) + float64(s.kMax) - 1
	if m < 1 {
		m = 1
	}
	return int(math.Ceil(m))
}

// Query returns ˆπ with additive error at most eps, retrieving the m(ρ,ε)
// nearest locations (plus any locations tied with the last one, so the
// retrieved set is distance-closed and Lemma 4.6 applies verbatim).
// Retrieved counts how many locations were actually pulled.
func (s *Spiral) Query(q geom.Point, eps float64) (probs []Prob, retrieved int) {
	return s.queryPrefix(q, s.M(eps), 0)
}

// QueryAdaptive stops retrieving as soon as the survival probability
// Π_j (1 − Ĝ_j(d)) drops to eps or below: for any unretrieved location p
// of point i, η(p;q) ≤ w(p)·Π_{j≠i}(1−Ĝ_j), and summing over P_i's tail
// bounds the truncation error of each π_i by the survival value — the
// adaptive sharpening of Lemma 4.6 (ablation E11 compares it with the
// fixed-m rule).
func (s *Spiral) QueryAdaptive(q geom.Point, eps float64) (probs []Prob, retrieved int) {
	return s.queryPrefix(q, s.locs.Len(), eps)
}

type swpEntry struct {
	d float64
	i int
	w float64
}

// peekStream adds single-item lookahead to a locStream.
type peekStream struct {
	s      locStream
	bd, bw float64
	bi     int
	has    bool
}

func (p *peekStream) Next() (float64, int, float64, bool) {
	if p.has {
		p.has = false
		return p.bd, p.bi, p.bw, true
	}
	return p.s.Next()
}

func (p *peekStream) Peek() (float64, bool) {
	if !p.has {
		d, i, w, ok := p.s.Next()
		if !ok {
			return 0, false
		}
		p.bd, p.bi, p.bw, p.has = d, i, w, true
	}
	return p.bd, true
}

func (s *Spiral) queryPrefix(q geom.Point, m int, survivalStop float64) ([]Prob, int) {
	e := &peekStream{s: s.locs.Enumerate(q)}
	var got []swpEntry
	factors := map[int]float64{} // 1 − Ĝ_j for touched owners
	survival := 1.0
	closeTies := func(last float64) {
		for {
			d, ok := e.Peek()
			if !ok || d > last {
				break
			}
			d2, i2, w2, _ := e.Next()
			got = append(got, swpEntry{d: d2, i: i2, w: w2})
		}
	}
	for {
		d, owner, w, ok := e.Next()
		if !ok {
			break
		}
		got = append(got, swpEntry{d: d, i: owner, w: w})
		// Maintain the survival product Π_j (1 − Ĝ_j).
		f, seen := factors[owner]
		if !seen {
			f = 1
		}
		nf := f - w
		if nf < 0 {
			nf = 0
		}
		factors[owner] = nf
		if f > 0 {
			if nf <= 0 {
				survival = 0
			} else {
				survival *= nf / f
			}
		}
		if len(got) >= m || survival <= survivalStop {
			// Pull any exact-distance ties so the prefix is closed.
			closeTies(d)
			break
		}
	}
	pi := etaSweep(got, s.n)
	var out []Prob
	for i, v := range pi {
		if v > 0 {
			out = append(out, Prob{I: i, P: v})
		}
	}
	return sortProbs(out), len(got)
}

// etaSweep evaluates Eq. (2)/(10)-(11) over a distance-sorted prefix of
// locations: ties are absorbed into the cdfs first (the ≤ of Eq. (2)),
// then each location's η is emitted against the updated cdfs.
func etaSweep(entries []swpEntry, n int) []float64 {
	pi := make([]float64, n)
	G := make([]float64, n)
	touched := make([]int, 0, 16)
	isTouched := make([]bool, n)
	for lo := 0; lo < len(entries); {
		// A group holds at least its first entry: a NaN distance equals
		// nothing, itself included, and must still advance the sweep.
		hi := lo + 1
		for hi < len(entries) && entries[hi].d == entries[lo].d {
			hi++
		}
		for t := lo; t < hi; t++ {
			en := entries[t]
			G[en.i] += en.w
			if !isTouched[en.i] {
				isTouched[en.i] = true
				touched = append(touched, en.i)
			}
		}
		for t := lo; t < hi; t++ {
			en := entries[t]
			prod := 1.0
			for _, j := range touched {
				if j == en.i {
					continue
				}
				f := 1 - G[j]
				if f <= 0 {
					prod = 0
					break
				}
				prod *= f
			}
			pi[en.i] += en.w * prod
		}
		lo = hi
	}
	return pi
}
