// Package policy is the DVS/DPM policy layer: a registry of named
// factories over one window loop. A policy observes the chip through a
// narrow monitor surface — window traffic volume, per-ME idle residency,
// receive-queue occupancy — and acts by walking the VF ladder or gating
// microengines into sleep states, paying the chip model's transition
// penalties either way.
//
// Each policy is a decision law: a factory entry plus one decide step that,
// given a window's readings and the levels in force, writes the next
// levels. The package owns everything around that step (loop.go): the
// ticker, the sensor bookkeeping, the actuator, the statistics and the
// timeline series. The paper's two laws register here — tdvs (the chip
// steps against traffic volume through the Figure 5 ladder) and edvs (each
// ME steps against its idle fraction) — next to two ablations (combined,
// oracle), pid, a control-theoretic feedback law on queue-occupancy error
// (after Xia & Tian), and psm, a power-state machine with sleep states
// below the VF ladder (after Conti). core resolves PolicyConfig{Name,
// Params} through this registry, so a new scenario is a new Register
// call — core never changes.
//
// Everything a policy computes must derive from simulation state only:
// registered factories become part of the deterministic core, and
// internal/lint's nepvet protection extends to this package.
package policy

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"nepdvs/internal/lint/diag"
	"nepdvs/internal/power"
	"nepdvs/internal/sim"
	"nepdvs/internal/span"
	"nepdvs/internal/traffic"
)

// Params is a policy's free parameters, by canonical snake_case name.
// Unknown keys are a validation error; absent keys take their declared
// defaults.
type Params map[string]float64

// Chip is the monitor/actuator surface a policy sees, satisfied by
// *npu.Chip (and by Intercept's faulted view of it).
type Chip interface {
	// NumMEs returns the microengine count.
	NumMEs() int
	// TrafficBits returns cumulative bits arrived at the device ports.
	TrafficBits() uint64
	// MEIdle returns cumulative idle time of one ME, excluding DVS stalls.
	MEIdle(i int) sim.Time
	// QueueOccupancy returns the receive-FIFO fill and capacity.
	QueueOccupancy() (used, capacity int)
	// SetMEVF transitions one ME (stall penalty applies).
	SetMEVF(i int, vf power.VF)
	// SetAllVF transitions every ME (stall penalty applies to each).
	SetAllVF(vf power.VF)
	// SetMESleep moves one ME to DPM state depth (0 awake, 1 sleep,
	// 2 deep sleep); waking applies a depth-scaled stall penalty.
	SetMESleep(i, depth int)
}

// Env is everything a factory and its loop get from the run.
type Env struct {
	Kernel *sim.Kernel
	Chip   Chip
	// RefMHz is the reference clock, for window-cycle conversion.
	RefMHz float64
	// Duration is the planned run length.
	Duration sim.Time
	// Params is the validated parameter set (defaults not yet applied;
	// use Factory.Param).
	Params Params
	// Spans, when non-nil, receives the policy's timeline series.
	Spans *span.Recorder
	// Packets is the materialized arrival schedule — the oracle's
	// lookahead input. Policies must only read it.
	Packets []traffic.Packet
}

// ParamDoc declares one parameter of a policy.
type ParamDoc struct {
	Name string
	Doc  string
	// Default applies when the parameter is absent; ignored for required
	// parameters.
	Default  float64
	Required bool
}

// Factory builds instances of one named policy.
type Factory struct {
	// Name is the canonical registry name (lowercase snake).
	Name string
	// Aliases are alternate spellings (legacy PolicyKind strings).
	Aliases []string
	// Doc is a one-line description for -list-policies.
	Doc string
	// Params declares the accepted parameters; unknown keys are rejected.
	Params []ParamDoc
	// Monitor reports whether the policy reads the traffic monitor, so
	// the chip charges the per-packet monitor-update energy.
	Monitor bool
	// Validate checks a parameter set without building anything; it runs
	// after unknown-key, finiteness and required-key screening.
	Validate func(Params) error
	// New builds the policy's decide step and loop shape (see Start).
	// Params have passed Validate.
	New func(Env) (Spec, error)
}

// Param resolves a parameter value against the factory's defaults.
func (f *Factory) Param(p Params, name string) float64 {
	if v, ok := p[name]; ok {
		return v
	}
	for _, d := range f.Params {
		if d.Name == name {
			return d.Default
		}
	}
	return 0
}

var (
	factories = map[string]*Factory{}
	aliases   = map[string]string{
		// The no-policy run is the registry's empty name; the legacy enum
		// spelling and the CLI spelling both resolve to it.
		"nodvs": "",
		"noDVS": "",
		"none":  "",
	}
)

// Register adds a factory to the registry. It panics on a duplicate name
// or alias — registration happens in init functions, so a collision is a
// programming error.
func Register(f *Factory) {
	if f.Name == "" {
		panic("policy: Register with empty name")
	}
	if _, ok := factories[f.Name]; ok {
		panic(fmt.Sprintf("policy: duplicate policy %q", f.Name))
	}
	if _, ok := aliases[f.Name]; ok {
		panic(fmt.Sprintf("policy: policy %q collides with an alias", f.Name))
	}
	factories[f.Name] = f
	for _, a := range f.Aliases {
		if _, ok := factories[a]; ok {
			panic(fmt.Sprintf("policy: alias %q collides with a policy", a))
		}
		if _, ok := aliases[a]; ok {
			panic(fmt.Sprintf("policy: duplicate alias %q", a))
		}
		aliases[a] = f.Name
	}
}

// Names returns the canonical policy names, sorted.
func Names() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Canonical resolves a policy name or alias to its canonical form. The
// empty string (and its nodvs aliases) canonicalize to "" — no policy.
// Unknown names error, with a did-you-mean hint when something close is
// registered.
func Canonical(name string) (string, error) {
	if name == "" {
		return "", nil
	}
	if _, ok := factories[name]; ok {
		return name, nil
	}
	if c, ok := aliases[name]; ok {
		return c, nil
	}
	known := append(Names(), "nodvs")
	hint := ""
	if s := diag.Suggest(name, known); s != "" {
		hint = fmt.Sprintf(" (did you mean %q?)", s)
	}
	return "", fmt.Errorf("policy: unknown policy %q%s; known policies: %s",
		name, hint, strings.Join(known, ", "))
}

// Lookup resolves a name to its factory; a nil factory with nil error
// means "no policy" (empty name).
func Lookup(name string) (*Factory, error) {
	c, err := Canonical(name)
	if err != nil {
		return nil, err
	}
	if c == "" {
		return nil, nil
	}
	return factories[c], nil
}

// Validate checks a named policy's parameter set: the name must resolve,
// every key must be declared, every value must be finite, required keys
// must be present, and the factory's own checks must pass. The empty name
// accepts only an empty parameter set.
func Validate(name string, p Params) error {
	f, err := Lookup(name)
	if err != nil {
		return err
	}
	if f == nil {
		if len(p) > 0 {
			return fmt.Errorf("policy: parameters given without a policy")
		}
		return nil
	}
	declared := make([]string, 0, len(f.Params))
	for _, d := range f.Params {
		declared = append(declared, d.Name)
	}
	sort.Strings(declared)
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		ok := false
		for _, d := range f.Params {
			if d.Name == k {
				ok = true
				break
			}
		}
		if !ok {
			hint := ""
			if s := diag.Suggest(k, declared); s != "" {
				hint = fmt.Sprintf(" (did you mean %q?)", s)
			}
			return fmt.Errorf("policy: %s: unknown parameter %q%s; accepted: %s",
				f.Name, k, hint, strings.Join(declared, ", "))
		}
		// NaN slips through every range check, and ±Inf makes no
		// meaningful rate, gain or fraction.
		if v := p[k]; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("policy: %s: %s must be finite, got %v", f.Name, k, v)
		}
	}
	for _, d := range f.Params {
		if d.Required {
			if _, ok := p[d.Name]; !ok {
				return fmt.Errorf("policy: %s: missing required parameter %q (%s)", f.Name, d.Name, d.Doc)
			}
		}
	}
	if f.Validate != nil {
		return f.Validate(p)
	}
	return nil
}

// Canonicalize resolves a name to canonical form and fills parameter
// defaults, for stable content addressing: a run under a legacy alias, or
// one that spells out a default explicitly, hashes identically to its
// canonical twin. Unknown parameter keys are kept verbatim (such configs
// never validate, so they never produce cache entries, but their keys must
// not collide with valid ones). An unresolvable name is returned as given.
func Canonicalize(name string, p Params) (string, Params) {
	c, err := Canonical(name)
	if err != nil {
		return name, p
	}
	if c == "" {
		return "", nil
	}
	f := factories[c]
	out := make(Params, len(f.Params)+len(p))
	for k, v := range p {
		out[k] = v
	}
	for _, d := range f.Params {
		if _, ok := out[d.Name]; !ok && !d.Required {
			out[d.Name] = d.Default
		}
	}
	return c, out
}

// DescribeAll renders the registry for -list-policies: one block per
// policy with its parameter table.
func DescribeAll() string {
	var b strings.Builder
	for _, n := range Names() {
		f := factories[n]
		fmt.Fprintf(&b, "%s — %s", f.Name, f.Doc)
		if len(f.Aliases) > 0 {
			fmt.Fprintf(&b, " (aliases: %s)", strings.Join(f.Aliases, ", "))
		}
		b.WriteString("\n")
		for _, d := range f.Params {
			req := fmt.Sprintf("default %g", d.Default)
			if d.Required {
				req = "required"
			}
			fmt.Fprintf(&b, "  %-20s %-12s %s\n", d.Name, "("+req+")", d.Doc)
		}
	}
	return b.String()
}
