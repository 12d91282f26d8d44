package quantify

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"unn/internal/geom"
	"unn/internal/uncertain"
)

func randDiscretes(rng *rand.Rand, n, k int, spready bool) []*uncertain.Discrete {
	pts := make([]*uncertain.Discrete, n)
	for i := range pts {
		c := geom.Pt(rng.Float64()*20-10, rng.Float64()*20-10)
		locs := make([]geom.Point, k)
		w := make([]float64, k)
		for j := range locs {
			locs[j] = c.Add(geom.Pt(rng.NormFloat64()*1.5, rng.NormFloat64()*1.5))
			if spready {
				w[j] = math.Pow(10, rng.Float64()*2) // spread up to ~100
			} else {
				w[j] = 0.5 + rng.Float64()
			}
		}
		d, err := uncertain.NewDiscrete(locs, w)
		if err != nil {
			panic(err)
		}
		pts[i] = d
	}
	return pts
}

// bruteExact is an independent O(N²·n)-ish reference implementation of
// Eq. (2), written differently from ExactAt on purpose.
func bruteExact(pts []*uncertain.Discrete, q geom.Point) []float64 {
	pi := make([]float64, len(pts))
	for i, p := range pts {
		for a, l := range p.Locs {
			d := q.Dist(l)
			prod := p.W[a]
			for j, pj := range pts {
				if j == i {
					continue
				}
				prod *= 1 - pj.DistCDF(q, d)
			}
			pi[i] += prod
		}
	}
	return pi
}

func TestExactMatchesIndependentReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		pts := randDiscretes(rng, 1+rng.Intn(8), 1+rng.Intn(4), trial%2 == 0)
		for k := 0; k < 20; k++ {
			q := geom.Pt(rng.Float64()*24-12, rng.Float64()*24-12)
			got := ExactAt(pts, q)
			want := bruteExact(pts, q)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("trial %d π_%d: %v vs %v", trial, i, got[i], want[i])
				}
			}
		}
	}
}

func TestExactSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		pts := randDiscretes(rng, 2+rng.Intn(10), 1+rng.Intn(5), false)
		q := geom.Pt(rng.Float64()*30-15, rng.Float64()*30-15)
		pi := ExactAt(pts, q)
		if s := TotalMass(pi); math.Abs(s-1) > 1e-9 {
			t.Fatalf("Σπ = %v", s)
		}
		for _, v := range pi {
			if v < 0 || v > 1 {
				t.Fatalf("π out of range: %v", v)
			}
		}
	}
}

// Hand-computable instance: two points with one location each.
func TestExactTwoCertainPoints(t *testing.T) {
	p1 := uncertain.UniformDiscrete([]geom.Point{geom.Pt(0, 0)})
	p2 := uncertain.UniformDiscrete([]geom.Point{geom.Pt(10, 0)})
	pi := ExactAt([]*uncertain.Discrete{p1, p2}, geom.Pt(1, 0))
	if pi[0] != 1 || pi[1] != 0 {
		t.Fatalf("π = %v", pi)
	}
}

// Two coin-flip points: q closest to p11, then p21, then p12, then p22:
// π_1 = w11 + w12·(1−w21), π_2 = w21·(1−w11).
func TestExactHandComputed(t *testing.T) {
	p1, _ := uncertain.NewDiscrete(
		[]geom.Point{geom.Pt(1, 0), geom.Pt(5, 0)}, []float64{0.5, 0.5})
	p2, _ := uncertain.NewDiscrete(
		[]geom.Point{geom.Pt(3, 0), geom.Pt(7, 0)}, []float64{0.5, 0.5})
	pi := ExactAt([]*uncertain.Discrete{p1, p2}, geom.Pt(0, 0))
	if math.Abs(pi[0]-(0.5+0.5*0.5)) > 1e-12 {
		t.Fatalf("π_1 = %v want 0.75", pi[0])
	}
	if math.Abs(pi[1]-0.5*0.5) > 1e-12 {
		t.Fatalf("π_2 = %v want 0.25", pi[1])
	}
}

// A NaN query makes every sweep distance NaN, which equals nothing —
// not even itself. The tie grouping used to leave such an entry's group
// empty and never advance, so the exact sweep spun forever.
func TestExactNaNQueryReturns(t *testing.T) {
	pts := randDiscretes(rand.New(rand.NewSource(3)), 8, 3, false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ExactPositive(pts, geom.Pt(math.NaN(), 0))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("ExactPositive on a NaN query did not return within 10s")
	}
}

func TestMonteCarloConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randDiscretes(rng, 6, 3, false)
	upts := make([]uncertain.Point, len(pts))
	for i, p := range pts {
		upts[i] = p
	}
	eps := 0.05
	s := RoundsEmpirical(len(pts), eps, 0.01)
	mc, err := NewMonteCarlo(upts, s, MCOptions{Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 25; k++ {
		q := geom.Pt(rng.Float64()*24-12, rng.Float64()*24-12)
		got := mc.QueryDense(q)
		want := ExactAt(pts, q)
		if d := MaxAbsDiff(got, want); d > eps {
			t.Fatalf("MC error %v > ε=%v at q=%v", d, eps, q)
		}
	}
}

func TestMonteCarloBackendsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randDiscretes(rng, 5, 3, false)
	upts := make([]uncertain.Point, len(pts))
	for i, p := range pts {
		upts[i] = p
	}
	// Same seed → same instantiations → identical estimates.
	mc1, err := NewMonteCarlo(upts, 200, MCOptions{Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	mc2, err := NewMonteCarlo(upts, 200, MCOptions{Backend: MCDelaunay, Rng: rand.New(rand.NewSource(7))})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 30; k++ {
		q := geom.Pt(rng.Float64()*24-12, rng.Float64()*24-12)
		a, b := mc1.QueryDense(q), mc2.QueryDense(q)
		if d := MaxAbsDiff(a, b); d > 1e-12 {
			t.Fatalf("backends disagree by %v at q=%v", d, q)
		}
	}
}

func TestMonteCarloContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Continuous points: exact reference via fine discretization.
	var upts []uncertain.Point
	var fine []*uncertain.Discrete
	for i := 0; i < 4; i++ {
		d := geom.DiskAt(rng.Float64()*10-5, rng.Float64()*10-5, 0.5+rng.Float64()*2)
		u := uncertain.UniformDisk{D: d}
		upts = append(upts, u)
		fine = append(fine, uncertain.Discretize(u, 4000, rng))
	}
	mc, err := NewMonteCarlo(upts, 4000, MCOptions{Rng: rng})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 10; k++ {
		q := geom.Pt(rng.Float64()*14-7, rng.Float64()*14-7)
		got := mc.QueryDense(q)
		want := ExactAt(fine, q)
		if d := MaxAbsDiff(got, want); d > 0.06 {
			t.Fatalf("continuous MC error %v at q=%v", d, q)
		}
	}
}

func TestRoundsFormulas(t *testing.T) {
	if Rounds(10, 3, 0.1, 0.1) <= RoundsEmpirical(10, 0.1, 0.1) {
		t.Fatal("uniform-guarantee rounds should exceed per-query rounds")
	}
	// 1/ε² scaling.
	a, b := RoundsEmpirical(10, 0.1, 0.1), RoundsEmpirical(10, 0.05, 0.1)
	if b < 3*a {
		t.Fatalf("halving ε should ~quadruple s: %d -> %d", a, b)
	}
}

func TestSpiralErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		pts := randDiscretes(rng, 8, 3, trial%2 == 1)
		sp, err := NewSpiral(pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{0.2, 0.05, 0.01} {
			for k := 0; k < 20; k++ {
				q := geom.Pt(rng.Float64()*24-12, rng.Float64()*24-12)
				want := ExactAt(pts, q)
				probs, m := sp.Query(q, eps)
				got := make([]float64, len(pts))
				for _, pr := range probs {
					got[pr.I] = pr.P
				}
				for i := range want {
					// Lemma 4.6: ˆπ ≤ π ≤ ˆπ + ε.
					if got[i] > want[i]+1e-9 {
						t.Fatalf("ˆπ_%d=%v exceeds π=%v", i, got[i], want[i])
					}
					if want[i]-got[i] > eps+1e-9 {
						t.Fatalf("trial %d eps=%v: π_%d error %v (retrieved %d of %d)",
							trial, eps, i, want[i]-got[i], m, sp.N())
					}
				}
			}
		}
	}
}

func TestSpiralAdaptiveErrorAndEconomy(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := randDiscretes(rng, 10, 4, true) // spread weights
	sp, err := NewSpiral(pts)
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.05
	totalFixed, totalAdaptive := 0, 0
	for k := 0; k < 40; k++ {
		q := geom.Pt(rng.Float64()*24-12, rng.Float64()*24-12)
		want := ExactAt(pts, q)
		probs, m := sp.QueryAdaptive(q, eps)
		totalAdaptive += m
		_, mf := sp.Query(q, eps)
		totalFixed += mf
		got := make([]float64, len(pts))
		for _, pr := range probs {
			got[pr.I] = pr.P
		}
		for i := range want {
			if got[i] > want[i]+1e-9 || want[i]-got[i] > eps+1e-9 {
				t.Fatalf("adaptive error at q=%v i=%d: got %v want %v", q, i, got[i], want[i])
			}
		}
	}
	// The adaptive rule should not retrieve more than the fixed-m rule on
	// average (that is its purpose under spread weights).
	if totalAdaptive > totalFixed {
		t.Logf("note: adaptive retrieved %d vs fixed %d", totalAdaptive, totalFixed)
	}
}

func TestSpiralM(t *testing.T) {
	pts := randDiscretes(rand.New(rand.NewSource(10)), 5, 3, false)
	sp, _ := NewSpiral(pts)
	if sp.M(0.01) <= sp.M(0.1) {
		t.Fatal("m must grow as ε shrinks")
	}
	if sp.Rho() < 1 {
		t.Fatalf("rho = %v", sp.Rho())
	}
}

func TestVPrMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := randDiscretes(rng, 4, 2, false)
	v, err := BuildVPr(pts, VPrOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 300; k++ {
		q := geom.Pt(rng.Float64()*30-15, rng.Float64()*30-15)
		got := v.Query(q)
		want := ExactAt(pts, q)
		if d := MaxAbsDiff(got, want); d > 1e-9 {
			t.Fatalf("V_Pr mismatch %v at q=%v", d, q)
		}
	}
	if v.DistinctCells() < 2 {
		t.Fatalf("suspiciously few distinct cells: %d", v.DistinctCells())
	}
	st := v.Stats()
	if st.V == 0 || st.F < 2 {
		t.Fatalf("degenerate stats %+v", st)
	}
}

func TestVPrRejectsHugeInstances(t *testing.T) {
	pts := randDiscretes(rand.New(rand.NewSource(12)), 40, 3, false)
	if _, err := BuildVPr(pts, VPrOptions{}); err == nil {
		t.Fatal("expected size rejection")
	}
}

func TestThresholdAndTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := randDiscretes(rng, 8, 3, false)
	sp, _ := NewSpiral(pts)
	est := SpiralEstimator{S: sp}
	for k := 0; k < 30; k++ {
		q := geom.Pt(rng.Float64()*24-12, rng.Float64()*24-12)
		tau := 0.25
		got := Threshold(est, q, tau)
		exact := ExactAt(pts, q)
		for _, pr := range got {
			if exact[pr.I] < tau/2 {
				t.Fatalf("threshold returned π=%v < τ/2", exact[pr.I])
			}
		}
		for i, p := range exact {
			if p >= 1.5*tau {
				found := false
				for _, pr := range got {
					if pr.I == i {
						found = true
					}
				}
				if !found {
					t.Fatalf("threshold missed π_%d = %v ≥ 3τ/2", i, p)
				}
			}
		}
		top := TopK(est, q, 3, 0.01)
		if len(top) > 3 {
			t.Fatal("TopK returned too many")
		}
		for i := 1; i < len(top); i++ {
			if top[i].P > top[i-1].P {
				t.Fatal("TopK not sorted")
			}
		}
	}
}
