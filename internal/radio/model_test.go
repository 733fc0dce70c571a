package radio

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewModelValidation(t *testing.T) {
	tests := []struct {
		name                       string
		exponent, maxRadius, rloss float64
		wantErr                    bool
	}{
		{"default ok", 2, 500, 1, false},
		{"urban ok", 4, 250, 2.5, false},
		{"exponent below one", 0.5, 500, 1, true},
		{"nan exponent", math.NaN(), 500, 1, true},
		{"zero radius", 2, 0, 1, true},
		{"negative radius", 2, -10, 1, true},
		{"zero loss", 2, 500, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewModel(tt.exponent, tt.maxRadius, tt.rloss)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewModel() error = %v, wantErr %v", err, tt.wantErr)
			}
			if err != nil && !errors.Is(err, ErrBadModel) {
				t.Errorf("error %v must wrap ErrBadModel", err)
			}
		})
	}
}

func TestPowerRangeRoundTrip(t *testing.T) {
	m := Default(500)
	f := func(d float64) bool {
		d = math.Mod(math.Abs(d), 500)
		if d == 0 {
			return m.PowerFor(0) == 0 && m.RangeFor(0) == 0
		}
		return math.Abs(m.RangeFor(m.PowerFor(d))-d) < 1e-9*d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaxPower(t *testing.T) {
	m := Default(500)
	if got, want := m.MaxPower(), 250000.0; math.Abs(got-want) > 1e-6 {
		t.Errorf("MaxPower = %v, want %v", got, want)
	}
	u, err := NewModel(4, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := u.MaxPower(), 3*math.Pow(10, 4); math.Abs(got-want) > 1e-6 {
		t.Errorf("MaxPower = %v, want %v", got, want)
	}
}

func TestReaches(t *testing.T) {
	m := Default(500)
	p := m.MaxPower()
	tests := []struct {
		name string
		tx   float64
		d    float64
		want bool
	}{
		{"max power reaches R", p, 500, true},
		{"max power misses beyond R", p, 500.001, false},
		{"half radius needs quarter power", p / 4, 250, true},
		{"insufficient power", p/4 - 1, 250, false},
		{"zero distance always", 0.001, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := m.Reaches(tt.tx, tt.d); got != tt.want {
				t.Errorf("Reaches(%v, %v) = %v, want %v", tt.tx, tt.d, got, tt.want)
			}
		})
	}
}

// NeededPower must recover p(d) exactly from (tx, rx), the assumption the
// paper's Ack mechanism relies on.
func TestNeededPowerRecoversTruth(t *testing.T) {
	for _, exp := range []float64{2, 3, 4} {
		m, err := NewModel(exp, 500, 1.7)
		if err != nil {
			t.Fatal(err)
		}
		f := func(dRaw, txRaw float64) bool {
			d := math.Mod(math.Abs(dRaw), 499) + 0.5
			tx := m.PowerFor(d) * (1 + math.Mod(math.Abs(txRaw), 4)) // any power ≥ p(d)
			rx := m.ReceivedPower(tx, d)
			got := m.NeededPower(tx, rx)
			want := m.PowerFor(d)
			return math.Abs(got-want) <= 1e-9*want
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("exponent %v: %v", exp, err)
		}
	}
}

func TestEstimateDistance(t *testing.T) {
	m := Default(500)
	f := func(dRaw float64) bool {
		d := math.Mod(math.Abs(dRaw), 499) + 0.5
		tx := m.MaxPower()
		rx := m.ReceivedPower(tx, d)
		return math.Abs(m.EstimateDistance(tx, rx)-d) < 1e-9*d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeededPowerZeroRx(t *testing.T) {
	m := Default(500)
	if got := m.NeededPower(100, 0); !math.IsInf(got, 1) {
		t.Errorf("NeededPower with rx=0 = %v, want +Inf", got)
	}
}

// Power is strictly monotone in distance: farther nodes need more power.
func TestPowerMonotoneProperty(t *testing.T) {
	m := Default(500)
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		d1 := rng.Float64() * 500
		d2 := d1 + rng.Float64()*100 + 1e-6
		return m.PowerFor(d1) < m.PowerFor(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPowerForSquareMatchesPow: the free-space law's multiplication
// equals RefLoss·math.Pow(d, 2) bit for bit — on random bit patterns
// inside its guard 2⁻⁵¹¹ ≤ d < 2⁵¹¹, at both guard ends and their
// neighbours, on random patterns outside it (the math.Pow fallback,
// subnormals and infinity included), at unit and non-unit reference
// losses.
func TestPowerForSquareMatchesPow(t *testing.T) {
	const lo, hi = 0x1p-511, 0x1p511
	ds := []float64{1, 2, 500, math.Pi, math.SmallestNonzeroFloat64, math.MaxFloat64, math.Inf(1)}
	for _, b := range []float64{lo, hi} {
		ds = append(ds, b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1)))
	}
	rng := rand.New(rand.NewPCG(26, 2))
	const mantissa = 1<<52 - 1
	inside := 0
	for range 1 << 17 {
		// Inside: a biased exponent for 2⁻⁵¹¹ … 2⁵¹⁰ and a random mantissa.
		e := uint64(1023-511) + rng.Uint64N(1022)
		ds = append(ds, math.Float64frombits(e<<52|rng.Uint64()&mantissa))
		// Anywhere among the positive non-NaN bit patterns.
		if d := math.Float64frombits(rng.Uint64() >> 1); !math.IsNaN(d) && d > 0 {
			ds = append(ds, d)
		}
	}
	for _, d := range ds {
		if d >= lo && d < hi {
			inside++
		}
	}
	if inside < 1<<17 || inside == len(ds) {
		t.Fatalf("%d of %d draws inside the guard: both sides must be covered", inside, len(ds))
	}
	for _, refLoss := range []float64{1, 2.5, 0.1} {
		m := Model{Exponent: FreeSpaceExponent, MaxRadius: 500, RefLoss: refLoss}
		for _, d := range ds {
			got, want := m.PowerFor(d), refLoss*math.Pow(d, 2)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("RefLoss %v: PowerFor(%v) = %v (%#x), RefLoss·Pow(d, 2) = %v (%#x)",
					refLoss, d, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
