package ssd

import "testing"

// Stage stats surface in Results and reset between phases.
func TestStageStatsInResults(t *testing.T) {
	s, err := New(testConfig(false, 0))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(testTrace(t, "stages", 2000, 0.9), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages.Admission.Admitted != res.ReadRequests+res.WriteRequests {
		t.Errorf("admitted %d != served %d", res.Stages.Admission.Admitted, res.ReadRequests+res.WriteRequests)
	}
	if res.Stages.Dispatch.ReadPages == 0 || res.Stages.Dispatch.WritePages == 0 {
		t.Errorf("dispatch stage counted nothing: %+v", res.Stages.Dispatch)
	}
	if res.Stages.Flash.ReadCommands < res.Stages.Dispatch.ReadPages-res.Stages.Dispatch.UnmappedPages {
		t.Errorf("flash stage issued %d read commands for %d mapped pages",
			res.Stages.Flash.ReadCommands, res.Stages.Dispatch.ReadPages)
	}
	if res.Stages.Flash.ProgramCommands != res.Stages.Dispatch.WritePages {
		t.Errorf("programs %d != dispatched write pages %d",
			res.Stages.Flash.ProgramCommands, res.Stages.Dispatch.WritePages)
	}
}
