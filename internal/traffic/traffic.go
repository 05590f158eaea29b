// Package traffic models the IP packet traffic driving the NPU simulation.
//
// The paper samples a day of real edge-router traffic from NLANR (its
// Figure 2) and cuts a few seconds of high, medium and low arrival-rate
// periods as simulator inputs. NLANR traces are long gone, so this package
// substitutes a synthetic but statistically comparable model:
//
//   - a diurnal rate curve (low overnight, peaking early afternoon) with
//     pseudo-random modulation, reproducing the Figure 2 shape and its
//     max/median/min per-bin spread, and
//   - a two-state Markov-modulated Poisson arrival process (burst/calm)
//     with an IMIX-style trimodal packet-size mixture, giving the
//     window-scale volume variance that makes the TDVS threshold ladder
//     actually switch during the paper's 8·10⁶-cycle runs.
//
// Everything is deterministic under a seed: the same configuration always
// produces byte-identical packet streams, which the simulator needs for
// reproducible traces.
package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nepdvs/internal/sim"
)

// Packet is one IP packet arriving at a device port.
type Packet struct {
	ID      uint64
	Arrival sim.Time // arrival time at the port
	Size    int      // bytes, including headers
	Port    int      // ingress port, 0..Ports-1
}

// Bits returns the packet size in bits.
func (p Packet) Bits() uint64 { return uint64(p.Size) * 8 }

// SizeBin is one component of the packet-size mixture.
type SizeBin struct {
	Bytes  int
	Weight float64
}

// DefaultSizes is an IMIX-like trimodal mixture: minimum-size TCP acks,
// default-MTU datagrams, and full Ethernet frames.
var DefaultSizes = []SizeBin{
	{Bytes: 40, Weight: 0.55},
	{Bytes: 576, Weight: 0.25},
	{Bytes: 1500, Weight: 0.20},
}

// MeanSize returns the expected packet size of a mixture in bytes.
func MeanSize(sizes []SizeBin) float64 {
	var sum, w float64
	for _, s := range sizes {
		sum += float64(s.Bytes) * s.Weight
		w += s.Weight
	}
	if w == 0 {
		return 0
	}
	return sum / w
}

// Config parameterizes a packet generator.
type Config struct {
	// MeanMbps is the long-run offered load across all ports.
	MeanMbps float64
	// Ports is the number of device ports (the IXP1200 has 16).
	Ports int
	// BurstFactor scales the arrival rate in the burst state; the calm
	// state is scaled down to preserve the configured mean. 1.0 disables
	// burstiness. Typical: 1.5–2.
	BurstFactor float64
	// BurstFraction is the long-run fraction of time in the burst state.
	BurstFraction float64
	// BurstDwell is the mean dwell time in the burst state. The calm dwell
	// is derived from BurstFraction. This sets the time scale of volume
	// variance; the paper's DVS windows are 33–133 µs, so dwells of the
	// same order make the threshold ladder exercise all its levels.
	BurstDwell sim.Time
	// Sizes is the packet-size mixture; nil means DefaultSizes.
	Sizes []SizeBin
	// Seed makes the stream reproducible.
	Seed int64
}

func (c Config) withDefaults() (Config, error) {
	// NaN slips through every range check, and ±Inf makes no meaningful
	// rate, factor or weight, so each test below is written to fail on NaN.
	if !(c.MeanMbps > 0) || math.IsInf(c.MeanMbps, 1) {
		return c, fmt.Errorf("traffic: mean rate must be positive and finite, got %v Mbps", c.MeanMbps)
	}
	if c.Ports <= 0 {
		c.Ports = 16
	}
	if c.BurstFactor == 0 {
		c.BurstFactor = 1.8
	}
	if !(c.BurstFactor >= 1) || math.IsInf(c.BurstFactor, 1) {
		return c, fmt.Errorf("traffic: burst factor must be finite and at least 1, got %v", c.BurstFactor)
	}
	if !(c.BurstFraction > 0 && c.BurstFraction < 1) {
		c.BurstFraction = 0.3
	}
	if c.BurstDwell <= 0 {
		c.BurstDwell = 60 * sim.Microsecond
	}
	if len(c.Sizes) == 0 {
		c.Sizes = DefaultSizes
	}
	var w float64
	for _, s := range c.Sizes {
		if s.Bytes <= 0 || !(s.Weight >= 0) || math.IsInf(s.Weight, 1) {
			return c, fmt.Errorf("traffic: bad size bin %+v", s)
		}
		w += s.Weight
	}
	if w <= 0 {
		return c, fmt.Errorf("traffic: size mixture has zero total weight")
	}
	return c, nil
}

// Generator produces a deterministic packet stream.
type Generator struct {
	cfg      Config
	rng      *rand.Rand
	now      sim.Time
	nextID   uint64
	inBurst  bool
	stateEnd sim.Time
	// calmFactor keeps the long-run mean at MeanMbps given the burst state.
	calmFactor float64
	// cumulative size weights for sampling
	cumW []float64
	sumW float64
}

// NewGenerator validates cfg and builds a generator.
func NewGenerator(cfg Config) (*Generator, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	// mean = f*burstFactor*calm? No: mean = frac*burst + (1-frac)*calm with
	// burst = BurstFactor*calmBase... solve calm scale s so that
	// frac*BF*s + (1-frac)*s = 1  =>  s = 1 / (frac*BF + 1 - frac).
	g.calmFactor = 1 / (cfg.BurstFraction*cfg.BurstFactor + 1 - cfg.BurstFraction)
	for _, s := range cfg.Sizes {
		g.sumW += s.Weight
		g.cumW = append(g.cumW, g.sumW)
	}
	g.scheduleState()
	return g, nil
}

func (g *Generator) scheduleState() {
	// With the calm dwell set to burstDwell·(1−f)/f, drawing the two
	// states with equal probability yields a long-run burst time share of
	// exactly f (p·Db / (p·Db + (1−p)·Dc) = f ⇔ p = ½).
	g.inBurst = g.rng.Float64() < 0.5
	g.stateEnd = g.now + g.dwell()
}

func (g *Generator) dwell() sim.Time {
	mean := float64(g.cfg.BurstDwell)
	if !g.inBurst {
		// Calm dwell preserves the burst fraction:
		// frac = burstDwell / (burstDwell + calmDwell).
		mean = float64(g.cfg.BurstDwell) * (1 - g.cfg.BurstFraction) / g.cfg.BurstFraction
	}
	d := sim.Time(g.rng.ExpFloat64() * mean)
	if d < sim.Time(1) {
		d = 1
	}
	return d
}

// rate returns the current packet arrival rate in packets per picosecond.
func (g *Generator) rate() float64 {
	bps := g.cfg.MeanMbps * 1e6 * g.calmFactor
	if g.inBurst {
		bps *= g.cfg.BurstFactor
	}
	pktPerSec := bps / (8 * MeanSize(g.cfg.Sizes))
	return pktPerSec / float64(sim.Second)
}

// Next returns the next packet in arrival order.
func (g *Generator) Next() Packet {
	for {
		gap := sim.Time(g.rng.ExpFloat64() / g.rate())
		if gap < 1 {
			gap = 1
		}
		if g.now+gap > g.stateEnd {
			// State expires before the next arrival; re-roll from the
			// state boundary so bursts have crisp edges (the exponential
			// gap is memoryless, so redrawing is unbiased).
			g.now = g.stateEnd
			g.scheduleState()
			continue
		}
		g.now += gap
		p := Packet{
			ID:      g.nextID,
			Arrival: g.now,
			Size:    g.sampleSize(),
			Port:    g.rng.Intn(g.cfg.Ports),
		}
		g.nextID++
		return p
	}
}

func (g *Generator) sampleSize() int {
	u := g.rng.Float64() * g.sumW
	idx := sort.SearchFloat64s(g.cumW, u)
	if idx >= len(g.cfg.Sizes) {
		idx = len(g.cfg.Sizes) - 1
	}
	return g.cfg.Sizes[idx].Bytes
}

// GenerateUntil returns all packets arriving strictly before deadline.
func (g *Generator) GenerateUntil(deadline sim.Time) []Packet {
	var out []Packet
	for {
		p := g.Next()
		if p.Arrival >= deadline {
			return out
		}
		out = append(out, p)
	}
}

// MeasureMbps computes the offered load of a packet slice over an interval.
func MeasureMbps(pkts []Packet, dur sim.Time) float64 {
	if dur <= 0 {
		return math.NaN()
	}
	var bits uint64
	for _, p := range pkts {
		bits += p.Bits()
	}
	return float64(bits) / (float64(dur) / float64(sim.Second)) / 1e6
}
