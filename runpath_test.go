package idaflash_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"idaflash"
	"idaflash/internal/array"
	"idaflash/internal/ssd"
	"idaflash/internal/workload"
)

// A single device is a one-member array: RunArrayWorkload with Devices 0 or
// 1 reports exactly what RunWorkload does, and both match a plain device
// built by hand for the whole footprint.
func TestOneMemberArrayIsTheDevice(t *testing.T) {
	p := smallProfile(t, "hm_1")
	for _, sys := range []idaflash.System{idaflash.Baseline(), idaflash.IDA(0.2)} {
		cfg, np, err := idaflash.BuildConfig(p, sys)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := np.Generate()
		if err != nil {
			t.Fatal(err)
		}
		pre, err := np.AgingPreamble()
		if err != nil {
			t.Fatal(err)
		}
		dev, err := ssd.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := dev.Run(tr, ssd.RunOptions{Preamble: pre})
		if err != nil {
			t.Fatal(err)
		}
		single, err := idaflash.RunWorkload(p, sys)
		if err != nil {
			t.Fatal(err)
		}
		if single.Scalars() != want.Scalars() {
			t.Errorf("%s: RunWorkload diverged from a hand-built device", sys.Name)
		}
		for _, devices := range []int{0, 1} {
			s := sys
			s.Devices = devices
			ar, err := idaflash.RunArrayWorkload(p, s)
			if err != nil {
				t.Fatal(err)
			}
			if ar.Devices != 1 || len(ar.PerDevice) != 1 {
				t.Fatalf("%s Devices=%d: array shape %d devices, %d per-device results",
					sys.Name, devices, ar.Devices, len(ar.PerDevice))
			}
			if ar.Combined.Scalars() != single.Scalars() {
				t.Errorf("%s Devices=%d: RunArrayWorkload().Combined diverged from RunWorkload()",
					sys.Name, devices)
			}
		}
	}
}

// The follow-up analysis is of one device; asking for an array used to be
// silently ignored.
func TestRunWithFollowupRejectsArrays(t *testing.T) {
	p := smallProfile(t, "proj_3")
	follow := idaflash.Profile{Name: "flush", ReadRatio: 0.3, MeanReadKB: 16, Requests: 500}
	for _, tc := range []struct {
		field  string
		mutate func(*idaflash.System)
	}{
		{"Devices", func(s *idaflash.System) { s.Devices = 4 }},
		{"Parity", func(s *idaflash.System) { s.Parity = true }},
	} {
		sys := idaflash.IDA(0.2)
		tc.mutate(&sys)
		_, _, err := idaflash.RunWithFollowup(p, sys, follow)
		var ce *idaflash.ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%s: got error %v, want a *ConfigError on %s", tc.field, err, tc.field)
		}
	}
}

// RunTrace replays a parsed MSR trace exactly as a device set built by hand
// around the trace's statistics does: a plain device for one member, a
// striped array for four.
func TestRunTraceMatchesHandBuiltDevices(t *testing.T) {
	gen, err := idaflash.ProfileByName("usr_1", 2000)
	if err != nil {
		t.Fatal(err)
	}
	src, err := gen.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := workload.WriteMSR(&csv, src); err != nil {
		t.Fatal(err)
	}
	tr, err := workload.ParseMSR("usr_1.csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	p := idaflash.Profile{
		Name:        "trace",
		ReadRatio:   st.ReadRatio,
		MeanReadKB:  st.MeanReadKB,
		FootprintMB: st.FootprintMB + 1,
		Requests:    st.Requests,
		Duration:    st.Span + time.Second,
	}
	for _, devices := range []int{1, 4} {
		sys := idaflash.IDA(0.2)
		sys.Devices = devices
		var want idaflash.Results
		if devices == 1 {
			cfg, _, err := idaflash.BuildConfig(p, sys)
			if err != nil {
				t.Fatal(err)
			}
			dev, err := ssd.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if want, err = dev.Run(tr, ssd.RunOptions{}); err != nil {
				t.Fatal(err)
			}
		} else {
			pdev := p
			pdev.FootprintMB = p.FootprintMB/float64(devices) + 1
			cfg, _, err := idaflash.BuildConfig(pdev, sys)
			if err != nil {
				t.Fatal(err)
			}
			arr, err := array.New(array.Config{Devices: devices, Device: cfg})
			if err != nil {
				t.Fatal(err)
			}
			res, err := arr.Run(tr, ssd.RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want = res.Combined
		}
		got, err := idaflash.RunTrace(tr, sys)
		if err != nil {
			t.Fatal(err)
		}
		if got.Devices != devices || got.Combined.Trace != tr.Name {
			t.Errorf("devices=%d: ran %d devices on trace %q", devices, got.Devices, got.Combined.Trace)
		}
		if got.Combined.Scalars() != want.Scalars() {
			t.Errorf("devices=%d: RunTrace diverged from the hand-built reference:\ngot  %+v\nwant %+v",
				devices, got.Combined.Scalars(), want.Scalars())
		}
	}
}
