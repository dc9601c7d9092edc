package ocl_test

import (
	"testing"

	"gpuport/internal/chip"
	"gpuport/internal/microbench"
	"gpuport/internal/ocl"
)

// TestTableXMatchesReference holds Table X's 24 kernel times to the
// reference simulator running the global-lane kernels microbench used
// before workgroup classes, verbatim (m-divg's block index is
// lane / 128): every Base and Optimised must match bit for bit.
func TestTableXMatchesReference(t *testing.T) {
	chips := chip.All()
	sgcmb, mdivg := microbench.TableX(chips)
	for i, ch := range chips {
		dev := &ocl.Device{Chip: ch}
		atomicKernel := func(combine bool) ocl.Kernel {
			return ocl.Kernel{
				Name:  "sg-cmb",
				Items: microbench.SGCmbN,
				// One atomic per lane, all to element 0.
				Rounds:         1,
				At:             func(lane, round int) ocl.Access { return ocl.Access{Addr: 0, Atomic: true} },
				CombineAtomics: combine,
			}
		}
		strided := func(barrier int) ocl.Kernel {
			return ocl.Kernel{
				Name:   "m-divg",
				Items:  microbench.MDivgItems,
				Rounds: microbench.MDivgRounds,
				At: func(lane, round int) ocl.Access {
					wg := lane / 128
					l := lane % 128
					return ocl.Access{Addr: int64(wg*32*(microbench.MDivgRounds+2) + round*32 + l%32)}
				},
				BarrierEvery: barrier,
			}
		}
		for _, c := range []struct {
			name string
			got  float64
			k    ocl.Kernel
		}{
			{"sg-cmb base", sgcmb[i].Base, atomicKernel(false)},
			{"sg-cmb combined", sgcmb[i].Optimised, atomicKernel(true)},
			{"m-divg no barrier", mdivg[i].Base, strided(0)},
			{"m-divg barrier", mdivg[i].Optimised, strided(1)},
		} {
			if want := ocl.RefRun(dev, c.k).TimeNS; c.got != want {
				t.Errorf("%s %s: %v, reference %v", ch.Name, c.name, c.got, want)
			}
		}
	}
}
