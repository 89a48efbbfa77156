package ftl

import (
	"math/rand"
	"testing"
	"time"

	"idaflash/internal/flash"
	"idaflash/internal/sim"
)

// TestRandomOperationsKeepInvariants drives the FTL through long random
// sequences of writes, overwrites, trims, reads, GC sweeps, and refresh
// scans, checking the structural invariants and data integrity after every
// phase. This is the workhorse robustness test: every mapping bug found
// during development would have tripped it.
func TestRandomOperationsKeepInvariants(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		seed := seed
		t.Run("", func(t *testing.T) {
			g := flash.Geometry{
				Channels: 2, ChipsPerChannel: 1, DiesPerChip: 2, PlanesPerDie: 1,
				BlocksPerPlane: 10, WordlinesPerBlock: 4, PageSizeBytes: 8192, BitsPerCell: 3,
			}
			f := mustFTL(t, Options{
				Geometry:        g,
				IDAEnabled:      seed%2 == 0,
				ErrorRate:       0.3,
				RefreshPeriod:   time.Hour,
				MaxOpenBlockAge: 30 * time.Minute,
				Seed:            seed,
			})
			rng := rand.New(rand.NewSource(seed))
			// Logical space sized to ~45% of the device.
			space := LPN(float64(g.TotalPages()) * 0.45)
			// shadow is the reference model: LPN -> written generation.
			shadow := make(map[LPN]int)
			gen := 0
			now := sim.Time(0)
			for step := 0; step < 4000; step++ {
				now += sim.Time(rng.Int63n(int64(time.Minute)))
				switch op := rng.Intn(100); {
				case op < 55: // write or overwrite
					lpn := LPN(rng.Int63n(int64(space)))
					gen++
					if _, err := f.Write(lpn, now); err != nil {
						t.Fatalf("seed %d step %d: write: %v", seed, step, err)
					}
					shadow[lpn] = gen
				case op < 60: // trim
					lpn := LPN(rng.Int63n(int64(space)))
					f.Trim(lpn)
					delete(shadow, lpn)
				case op < 90: // read
					lpn := LPN(rng.Int63n(int64(space)))
					info, ok := f.Read(lpn)
					_, want := shadow[lpn]
					if ok != want {
						t.Fatalf("seed %d step %d: read(%d) mapped=%v want %v", seed, step, lpn, ok, want)
					}
					if ok && (info.Senses < 1 || info.Senses > 4) {
						t.Fatalf("seed %d step %d: senses %d", seed, step, info.Senses)
					}
				case op < 95: // GC sweep
					mustCollectGC(t, f, now)
				default: // refresh scan
					mustDueRefreshes(t, f, now)
				}
				if step%500 == 0 {
					checkInvariants(t, f)
				}
			}
			checkInvariants(t, f)
			// Every shadow entry still resolves.
			for lpn := range shadow {
				if _, ok := f.Read(lpn); !ok {
					t.Fatalf("seed %d: LPN %d lost", seed, lpn)
				}
			}
			if f.MappedPages() != len(shadow) {
				t.Fatalf("seed %d: mapped %d, shadow %d", seed, f.MappedPages(), len(shadow))
			}
		})
	}
}

// TestRandomOperationsMLCAndQLC runs a shorter fuzz on 2- and 4-bit cells,
// exercising the generalized Table I planner end to end.
func TestRandomOperationsMLCAndQLC(t *testing.T) {
	for _, bits := range []int{2, 4} {
		bits := bits
		t.Run("", func(t *testing.T) {
			g := flash.Geometry{
				Channels: 1, ChipsPerChannel: 2, DiesPerChip: 1, PlanesPerDie: 1,
				BlocksPerPlane: 8, WordlinesPerBlock: 4, PageSizeBytes: 8192, BitsPerCell: bits,
			}
			f := mustFTL(t, Options{
				Geometry:        g,
				IDAEnabled:      true,
				ErrorRate:       0.2,
				RefreshPeriod:   time.Hour,
				MaxOpenBlockAge: 30 * time.Minute,
				Seed:            int64(bits),
			})
			rng := rand.New(rand.NewSource(int64(bits)))
			space := LPN(float64(g.TotalPages()) * 0.4)
			now := sim.Time(0)
			maxSenses := 1 << uint(bits-1)
			for step := 0; step < 1500; step++ {
				now += sim.Time(rng.Int63n(int64(time.Minute)))
				if rng.Intn(10) < 6 {
					if _, err := f.Write(LPN(rng.Int63n(int64(space))), now); err != nil {
						t.Fatalf("bits %d step %d: %v", bits, step, err)
					}
				} else if info, ok := f.Read(LPN(rng.Int63n(int64(space)))); ok {
					if info.Senses < 1 || info.Senses > maxSenses {
						t.Fatalf("bits %d: senses %d", bits, info.Senses)
					}
				}
				if step%250 == 0 {
					mustDueRefreshes(t, f, now)
					mustCollectGC(t, f, now)
					checkInvariants(t, f)
				}
			}
			checkInvariants(t, f)
			if f.Stats().IDARefreshes == 0 {
				t.Errorf("bits %d: IDA never engaged", bits)
			}
		})
	}
}
