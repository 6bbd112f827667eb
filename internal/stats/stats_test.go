package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPaperSampleSize(t *testing.T) {
	// The paper cites 2,000 faults per component for a 2.88% margin at
	// 99% confidence; for any large population the Leveugle formula
	// should reproduce roughly that pairing.
	n := SampleSize(1<<30, 0.0288, 0.99)
	if n < 1900 || n > 2100 {
		t.Errorf("sample size for 2.88%%@99%% = %d, expected ~2000", n)
	}
	m := ErrorMargin(2000, 1<<30, 0.99)
	if math.Abs(m-0.0288) > 0.002 {
		t.Errorf("margin for 2000 samples = %.4f, expected ~0.0288", m)
	}
}

func TestSampleSizeSmallPopulation(t *testing.T) {
	// Sampling most of a small population needs almost all of it.
	if n := SampleSize(100, 0.01, 0.99); n < 95 || n > 100 {
		t.Errorf("small-population sample size = %d", n)
	}
	if n := SampleSize(0, 0.01, 0.99); n != 0 {
		t.Errorf("empty population sample size = %d", n)
	}
}

func TestErrorMarginEdges(t *testing.T) {
	if m := ErrorMargin(0, 1000, 0.99); m != 1 {
		t.Errorf("zero samples margin = %f", m)
	}
	if m := ErrorMargin(1000, 1000, 0.99); m != 0 {
		t.Errorf("census margin = %f", m)
	}
}

func TestMarginMonotonicInSamples(t *testing.T) {
	prop := func(seed int64) bool {
		n1 := int(seed%1000) + 10
		n2 := n1 * 2
		pop := uint64(1 << 24)
		return ErrorMargin(n2, pop, 0.99) <= ErrorMargin(n1, pop, 0.99)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestConfidenceOrdering(t *testing.T) {
	// Higher confidence -> wider margin for the same sample.
	m95 := ErrorMargin(500, 1<<24, 0.95)
	m99 := ErrorMargin(500, 1<<24, 0.99)
	if m99 <= m95 {
		t.Errorf("99%% margin %.4f should exceed 95%% margin %.4f", m99, m95)
	}
}

func TestWilsonInterval(t *testing.T) {
	p := WilsonInterval(50, 100, 0.95)
	if p.Estimate != 0.5 {
		t.Errorf("estimate = %f", p.Estimate)
	}
	if p.Lo >= 0.5 || p.Hi <= 0.5 {
		t.Errorf("interval [%f,%f] should bracket 0.5", p.Lo, p.Hi)
	}
	if p.Hi-p.Lo > 0.25 {
		t.Errorf("interval too wide: %f", p.Hi-p.Lo)
	}
	zero := WilsonInterval(0, 100, 0.95)
	if zero.Lo != 0 || zero.Estimate != 0 {
		t.Errorf("zero-successes interval: %+v", zero)
	}
	if zero.Hi <= 0 || zero.Hi > 0.1 {
		t.Errorf("zero-successes upper bound: %f", zero.Hi)
	}
	empty := WilsonInterval(0, 0, 0.95)
	if empty.Estimate != 0 || empty.Lo != 0 || empty.Hi != 0 {
		t.Errorf("empty interval: %+v", empty)
	}
}

// TestWilsonEndpointsExact: with no successes the interval starts at
// exactly 0 and with no failures it ends at exactly 1, so it always
// contains its own estimate. The three sample sizes are ones where
// center -+ half used to land an ulp on the wrong side (Lo = 1.7e-18
// above an estimate of 0, Hi = 1 - 1.1e-16 below an estimate of 1),
// which failed TestWilsonBoundsProperty about one run in five.
func TestWilsonEndpointsExact(t *testing.T) {
	for _, n := range []int{252, 190, 48} {
		if p := WilsonInterval(0, n, 0.99); p.Lo != 0 || p.Estimate != 0 || p.Hi <= 0 || p.Hi >= 1 {
			t.Errorf("0 of %d: %+v, want Lo = Estimate = 0 < Hi < 1", n, p)
		}
		if p := WilsonInterval(n, n, 0.99); p.Hi != 1 || p.Estimate != 1 || p.Lo <= 0 || p.Lo >= 1 {
			t.Errorf("%d of %d: %+v, want 0 < Lo < Estimate = Hi = 1", n, n, p)
		}
	}
}

func TestWilsonBoundsProperty(t *testing.T) {
	prop := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		n := int(seed%500) + 1
		k := int(seed % int64(n+1))
		p := WilsonInterval(k, n, 0.99)
		return p.Lo >= 0 && p.Hi <= 1 && p.Lo <= p.Estimate && p.Estimate <= p.Hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
