package faults

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

func TestDurationJSON(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{`"1.5ms"`, 1500 * time.Microsecond},
		{`"2s"`, 2 * time.Second},
		{`1500000`, 1500 * time.Microsecond},
		{`0`, 0},
	}
	for _, c := range cases {
		var d Duration
		if err := json.Unmarshal([]byte(c.in), &d); err != nil {
			t.Fatalf("unmarshal %s: %v", c.in, err)
		}
		if d.D() != c.want {
			t.Errorf("unmarshal %s = %v, want %v", c.in, d.D(), c.want)
		}
	}
	var d Duration
	if err := json.Unmarshal([]byte(`"three seconds"`), &d); err == nil {
		t.Error("bad duration string accepted")
	}
	// Round trip: marshal writes the string form.
	b, err := json.Marshal(Duration(250 * time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	var back Duration
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.D() != 250*time.Microsecond {
		t.Errorf("round trip %s -> %v", b, back.D())
	}
}

func TestWearFailureAt(t *testing.T) {
	w := WearFailure{Base: 0.001, PerKCycle: 0.01, Max: 0.05}
	if got := w.At(0); got != 0.001 {
		t.Errorf("fresh block probability %v, want base", got)
	}
	if got := w.At(1000); math.Abs(got-0.011) > 1e-12 {
		t.Errorf("at 1000 cycles %v, want 0.011", got)
	}
	if got := w.At(100000); got != 0.05 {
		t.Errorf("cap %v, want Max", got)
	}
	if got := w.At(-5); got != 0.001 {
		t.Errorf("negative erase count %v, want clamp to base", got)
	}
	// Zero Max means no cap short of certainty.
	uncapped := WearFailure{Base: 0.5, PerKCycle: 1}
	if got := uncapped.At(1000); got != 1.0 {
		t.Errorf("uncapped %v, want 1.0", got)
	}
}

func TestOutageCovers(t *testing.T) {
	o := Outage{Device: 2, Unit: 1, After: Duration(time.Second), For: Duration(time.Second)}
	at := func(d time.Duration) sim.Time { return sim.Time(d) }
	if o.covers(2, 1, at(999*time.Millisecond)) {
		t.Error("covers before the window")
	}
	if !o.covers(2, 1, at(time.Second)) || !o.covers(2, 1, at(1999*time.Millisecond)) {
		t.Error("window start/interior not covered")
	}
	if o.covers(2, 1, at(2*time.Second)) {
		t.Error("covers after the window")
	}
	if o.covers(1, 1, at(time.Second)) || o.covers(2, 0, at(time.Second)) {
		t.Error("wrong device/unit covered")
	}
	all := Outage{Device: -1, Unit: 0, After: 0}
	if !all.covers(0, 0, 0) || !all.covers(7, 0, at(time.Hour)) {
		t.Error("device -1 should cover every device, permanently")
	}
}

func TestScenarioValidate(t *testing.T) {
	var nilSc *Scenario
	if err := nilSc.Validate(); err != nil {
		t.Errorf("nil scenario should validate: %v", err)
	}
	bad := []Scenario{
		{ProgramFail: WearFailure{Base: -0.1}},
		{EraseFail: WearFailure{Max: 1.5}},
		{Dies: []Outage{{Device: -2}}},
		{Dies: []Outage{{Unit: -1}}},
		{Channels: []Outage{{After: Duration(-time.Second)}}},
		{Read: ReadFaults{TimeoutProb: 0.7, SpikeProb: 0.7, Spike: Duration(time.Millisecond)}},
		{Read: ReadFaults{SpikeProb: 0.1}}, // spike prob without a spike
		{Retry: Retry{Max: -1}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error", i)
		}
	}
	ok := Scenario{
		ProgramFail: WearFailure{Base: 0.001, PerKCycle: 0.01, Max: 0.1},
		Dies:        []Outage{{Device: -1, Unit: 3, After: Duration(time.Minute)}},
		Read:        ReadFaults{TimeoutProb: 0.01, SpikeProb: 0.05, Spike: Duration(time.Millisecond)},
	}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid scenario rejected: %v", err)
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	os.WriteFile(good, []byte(`{
		"name": "t",
		"seed": 7,
		"program_fail": {"base": 0.001},
		"dies": [{"device": 1, "unit": 0, "after": "10ms", "for": "5ms"}],
		"read_faults": {"timeout_prob": 0.01, "spike_prob": 0.02, "spike": "200us"},
		"retry": {"max": 2, "backoff": "25us"}
	}`), 0o644)
	sc, err := Load(good)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "t" || sc.Seed != 7 || sc.ProgramFail.Base != 0.001 {
		t.Errorf("scalar fields wrong: %+v", sc)
	}
	if len(sc.Dies) != 1 || sc.Dies[0].After.D() != 10*time.Millisecond || sc.Dies[0].For.D() != 5*time.Millisecond {
		t.Errorf("outage wrong: %+v", sc.Dies)
	}
	if sc.Retry.Max != 2 || sc.Retry.Backoff.D() != 25*time.Microsecond {
		t.Errorf("retry wrong: %+v", sc.Retry)
	}

	typo := filepath.Join(dir, "typo.json")
	os.WriteFile(typo, []byte(`{"programfail": {"base": 0.1}}`), 0o644)
	if _, err := Load(typo); err == nil {
		t.Error("unknown field accepted")
	}
	invalid := filepath.Join(dir, "invalid.json")
	os.WriteFile(invalid, []byte(`{"read_faults": {"timeout_prob": 2}}`), 0o644)
	if _, err := Load(invalid); err == nil {
		t.Error("invalid scenario accepted")
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRetryDefaultsAndBackoff(t *testing.T) {
	r := Retry{}.withDefaults()
	if r.Max != DefaultMaxRetries || r.Backoff != DefaultBackoff || r.OpTimeout != DefaultOpTimeout {
		t.Errorf("defaults wrong: %+v", r)
	}
	r = Retry{Max: 5, Backoff: Duration(100 * time.Microsecond)}.withDefaults()
	if r.Max != 5 || r.Backoff.D() != 100*time.Microsecond {
		t.Error("explicit values overridden")
	}
	if got := r.BackoffAt(0); got != 100*time.Microsecond {
		t.Errorf("BackoffAt(0) = %v", got)
	}
	if got := r.BackoffAt(3); got != 800*time.Microsecond {
		t.Errorf("BackoffAt(3) = %v, want 800us", got)
	}
	// The doubling caps out instead of overflowing.
	if got := r.BackoffAt(80); got > 2*time.Second {
		t.Errorf("BackoffAt(80) = %v, want capped", got)
	}
}

func TestInjectorNilSafety(t *testing.T) {
	var inj *Injector
	if NewInjector(nil, 1, 0) != nil {
		t.Fatal("nil scenario should produce a nil injector")
	}
	if inj.ProgramFails(flash.PageAddr{}, 1000) || inj.EraseFails(flash.BlockAddr{}, 1000) {
		t.Error("nil injector injected a media failure")
	}
	if inj.DieDown(0, 0) || inj.ChannelDown(0, 0) {
		t.Error("nil injector reported an outage")
	}
	if extra, timeout := inj.ReadFault(); extra != 0 || timeout {
		t.Error("nil injector injected a read fault")
	}
	if r := inj.Retry(); r.Max != DefaultMaxRetries {
		t.Error("nil injector retry policy not defaulted")
	}
}

func TestInjectorDeterminism(t *testing.T) {
	sc := &Scenario{
		Seed:        11,
		ProgramFail: WearFailure{Base: 0.3},
		EraseFail:   WearFailure{Base: 0.2},
		Read:        ReadFaults{TimeoutProb: 0.1, SpikeProb: 0.2, Spike: Duration(time.Millisecond)},
	}
	draw := func(inj *Injector) []bool {
		var out []bool
		for i := 0; i < 200; i++ {
			out = append(out, inj.ProgramFails(flash.PageAddr{}, i))
			out = append(out, inj.EraseFails(flash.BlockAddr{}, i))
			_, to := inj.ReadFault()
			out = append(out, to)
		}
		return out
	}
	a := draw(NewInjector(sc, 5, 0))
	b := draw(NewInjector(sc, 5, 0))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical injectors", i)
		}
	}
	// A different device seed draws a different stream.
	c := draw(NewInjector(sc, 6, 0))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault streams")
	}
}

func TestInjectorOutagesByDevice(t *testing.T) {
	sc := &Scenario{
		Dies:     []Outage{{Device: 2, Unit: 0, After: Duration(time.Second)}},
		Channels: []Outage{{Device: -1, Unit: 1, After: 0, For: Duration(time.Second)}},
	}
	d2 := NewInjector(sc, 1, 2)
	d0 := NewInjector(sc, 1, 0)
	late := sim.Time(2 * time.Second)
	if !d2.DieDown(0, late) {
		t.Error("device 2 die 0 should be down after the outage start")
	}
	if d2.DieDown(0, sim.Time(time.Millisecond)) {
		t.Error("outage active before its start")
	}
	if d2.DieDown(1, late) {
		t.Error("wrong die down")
	}
	if d0.DieDown(0, late) {
		t.Error("outage leaked to another device")
	}
	// The channel outage hits every device but expires.
	if !d0.ChannelDown(1, sim.Time(time.Millisecond)) || !d2.ChannelDown(1, sim.Time(time.Millisecond)) {
		t.Error("all-device channel outage missing")
	}
	if d0.ChannelDown(1, late) {
		t.Error("timed outage did not expire")
	}
}

func TestReadFaultExclusive(t *testing.T) {
	sc := &Scenario{Read: ReadFaults{TimeoutProb: 0.3, SpikeProb: 0.3, Spike: Duration(time.Millisecond)}}
	inj := NewInjector(sc, 3, 0)
	timeouts, spikes, clean := 0, 0, 0
	n := 20000
	for i := 0; i < n; i++ {
		extra, timeout := inj.ReadFault()
		switch {
		case timeout && extra != 0:
			t.Fatal("timeout and spike in one draw")
		case timeout:
			timeouts++
		case extra != 0:
			if extra != time.Millisecond {
				t.Fatalf("spike %v, want 1ms", extra)
			}
			spikes++
		default:
			clean++
		}
	}
	frac := func(k int) float64 { return float64(k) / float64(n) }
	if f := frac(timeouts); f < 0.25 || f > 0.35 {
		t.Errorf("timeout fraction %.3f, want ~0.3", f)
	}
	if f := frac(spikes); f < 0.25 || f > 0.35 {
		t.Errorf("spike fraction %.3f, want ~0.3", f)
	}
	if f := frac(clean); f < 0.35 || f > 0.45 {
		t.Errorf("clean fraction %.3f, want ~0.4", f)
	}
}
