package telemetry

import "testing"

// BenchmarkDisabledHooks measures the full per-request hook sequence with
// telemetry disabled (nil recorder), the configuration every non-telemetry
// run uses. Run with -benchmem: the contract is 0 allocs/op — the hooks
// must be free when nobody is watching. TestDisabledHooksAllocateNothing
// enforces the same property as a regular test.
func BenchmarkDisabledHooks(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledRequest(r)
	}
}

// disabledRequest replays the hook calls one 2-page read makes on the hot
// path.
func disabledRequest(r *Recorder) {
	sp := r.StartRequest(0, true, 8192)
	for p := 0; p < 2; p++ {
		sp.AddPhase(StageQueue, 10, 20)
		sp.AddPhase(StageFlash, 20, 120)
		sp.AddPhase(StageECC, 120, 140)
	}
	r.FinishRequest(sp, 140)
}

func TestDisabledHooksAllocateNothing(t *testing.T) {
	var r *Recorder
	if allocs := testing.AllocsPerRun(1000, func() { disabledRequest(r) }); allocs != 0 {
		t.Fatalf("disabled telemetry hooks allocate %.1f times per request, want 0", allocs)
	}
}

// BenchmarkEnabledSpan is the enabled-path counterpart, for sizing the
// overhead a traced run accepts.
func BenchmarkEnabledSpan(b *testing.B) {
	r := New(Config{SpanCapacity: 1024})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		disabledRequest(r)
	}
}
