// Package chip models the study's six GPUs (Table I of the paper):
// two Nvidia (Quadro M4000, GTX 1080), two Intel (HD 5500, Iris 6100),
// one AMD (Radeon R9) and one ARM (Mali-T628).
//
// A Chip carries the architectural performance parameters that the
// paper's optimisations interact with (Table VI): kernel launch and
// copy-back latency, global barrier cost, aggregate edge throughput,
// atomic RMW cost, barrier throughput at subgroup and workgroup level,
// memory-divergence sensitivity, and occupancy behaviour at the two
// workgroup sizes. The parameters are calibrated so each chip exhibits
// the behaviours the paper documents for it (Section VIII, Table IX,
// Table X and Figure 5); see DESIGN.md section 4 for the target list.
package chip

import "fmt"

// Chip describes one GPU platform, including its runtime environment
// (the paper's "chip" explicitly includes driver and OS effects).
type Chip struct {
	// Name is the study-wide short name (Table I).
	Name string
	// Vendor is the GPU vendor.
	Vendor string
	// Arch is the microarchitecture / tier.
	Arch string
	// OS is the host operating system used in the study.
	OS string
	// CUs is the number of compute units.
	CUs int
	// SubgroupSize is the hardware subgroup (warp/wavefront) width; 1
	// on MALI, which exposes no subgroups.
	SubgroupSize int

	// LaunchNS is the kernel launch latency in model nanoseconds.
	// Nvidia's lean runtime makes this far lower than the other
	// vendors' OpenCL stacks - the root cause of Figure 5.
	LaunchNS float64
	// CopyNS is the cost of the per-iteration host<->device copy of
	// the fixpoint flag.
	CopyNS float64
	// GlobalBarrierNS is the cost of one portable global barrier
	// round (the oitergb synchronisation substitute for a launch).
	GlobalBarrierNS float64
	// GBOccupancyPenalty multiplies compute time of outlined kernels:
	// the persistent-thread execution environment required by the
	// portable barrier restricts occupancy slightly.
	GBOccupancyPenalty float64

	// EdgeThroughput is aggregate useful work throughput in work
	// units (edges) per nanosecond at full occupancy.
	EdgeThroughput float64
	// ItemOverheadNS is the fixed per-work-item scheduling cost.
	ItemOverheadNS float64

	// AtomicNS is the effective cost of one contended global atomic
	// RMW (worklist push); AtomicDataNS of a data atomic (min/CAS on
	// application arrays, spread over many addresses).
	AtomicNS     float64
	AtomicDataNS float64
	// JITCombinesAtomics is true when the vendor's OpenCL JIT already
	// performs subgroup atomic combining, making coop-cv redundant
	// (observed for both Nvidia chips and Intel HD5500, Section VIII-b).
	JITCombinesAtomics bool
	// CombineEfficiency scales the ideal subgroup-sized combining
	// factor to the achieved one (R9: 64-wide subgroup but ~22x).
	CombineEfficiency float64
	// CoopOverheadNS is the per-edge-visit orchestration cost coop-cv
	// adds (predicated local-memory staging plus subgroup
	// communication, executed uniformly by all lanes), spread across
	// the chip's compute units.
	CoopOverheadNS float64

	// SubgroupBarrierNS is the cost of one subgroup barrier; zero on
	// lockstep hardware where it compiles away.
	SubgroupBarrierNS float64
	// WorkgroupBarrierNS is the cost of one workgroup barrier at
	// workgroup size 128; at 256 it costs WGBarrier256Factor more.
	WorkgroupBarrierNS float64
	WGBarrier256Factor float64
	// LocalMemNS is the per-access local memory / cache-hit latency.
	LocalMemNS float64
	// LineFetchNS is the cost of one global memory line transaction
	// (used by the work-item simulator in internal/ocl).
	LineFetchNS float64
	// CacheLinesPerCU is the per-CU cache capacity in lines available
	// to one workgroup; drift beyond it causes thrashing (Table X's
	// m-divg microbenchmark).
	CacheLinesPerCU int

	// FG1CostPerEdge and FG8CostPerEdge are the fine-grained
	// scheduler's overhead per edge, in work units. They capture how
	// well the vendor's compiler handles the linearised inner loop:
	// cheap on Nvidia and AMD (where the paper finds fg8 nearly always
	// wins, CL > .85), expensive on Intel (CL < .6).
	FG1CostPerEdge float64
	FG8CostPerEdge float64

	// DivergencePenaltyNS is the extra cost per irregular global
	// access caused by intra-workgroup memory divergence. MALI's
	// small, easily-thrashed caches make this enormous (Table X,
	// m-divg row: 6.45x from a gratuitous barrier).
	DivergencePenaltyNS float64
	// BarrierDivergenceRelief is the fraction of the divergence
	// penalty removed when barriers keep the workgroup's threads on
	// the same loop iteration (the Section VIII-c effect).
	BarrierDivergenceRelief float64

	// Occupancy256 multiplies throughput when sz256 is enabled
	// (workgroup-local resource limits; >1 means 256 helps).
	Occupancy256 float64
	// MaxWorkgroup is the largest supported workgroup size.
	MaxWorkgroup int

	// NoiseSigma is the log-normal run-to-run timing jitter. OpenCL
	// has no device timers, so all chips carry some; the embedded
	// MALI platform is noisiest.
	NoiseSigma float64
}

// Names of the study's chips.
const (
	M4000   = "M4000"
	GTX1080 = "GTX1080"
	HD5500  = "HD5500"
	IRIS    = "IRIS"
	R9      = "R9"
	MALI    = "MALI"
)

// All returns the six chips of the study in Table I order.
func All() []Chip {
	return []Chip{
		{
			Name: M4000, Vendor: "Nvidia", Arch: "Maxwell", OS: "Linux",
			CUs: 13, SubgroupSize: 32,
			LaunchNS: 5000, CopyNS: 2600, GlobalBarrierNS: 5600, GBOccupancyPenalty: 1.12,
			EdgeThroughput: 2.6, ItemOverheadNS: 0.55,
			AtomicNS: 4.5, AtomicDataNS: 2.2,
			JITCombinesAtomics: true, CombineEfficiency: 0.35, CoopOverheadNS: 6.5,
			SubgroupBarrierNS: 0, WorkgroupBarrierNS: 28, WGBarrier256Factor: 2.3,
			FG1CostPerEdge: 0.75, FG8CostPerEdge: 0.04,
			LineFetchNS: 30, CacheLinesPerCU: 6,
			LocalMemNS: 0.9, DivergencePenaltyNS: 0.40, BarrierDivergenceRelief: 0.30,
			Occupancy256: 1.06, MaxWorkgroup: 1024, NoiseSigma: 0.030,
		},
		{
			Name: GTX1080, Vendor: "Nvidia", Arch: "Pascal", OS: "Linux",
			CUs: 20, SubgroupSize: 32,
			LaunchNS: 4300, CopyNS: 2300, GlobalBarrierNS: 5200, GBOccupancyPenalty: 1.12,
			EdgeThroughput: 5.6, ItemOverheadNS: 0.4,
			AtomicNS: 3.2, AtomicDataNS: 1.5,
			JITCombinesAtomics: true, CombineEfficiency: 0.35, CoopOverheadNS: 5.6,
			SubgroupBarrierNS: 0, WorkgroupBarrierNS: 22, WGBarrier256Factor: 2.6,
			FG1CostPerEdge: 0.70, FG8CostPerEdge: 0.03,
			LineFetchNS: 26, CacheLinesPerCU: 7,
			LocalMemNS: 0.7, DivergencePenaltyNS: 0.28, BarrierDivergenceRelief: 0.26,
			Occupancy256: 0.85, MaxWorkgroup: 1024, NoiseSigma: 0.030,
		},
		{
			Name: HD5500, Vendor: "Intel", Arch: "Broadwell GT2", OS: "Windows",
			CUs: 24, SubgroupSize: 16,
			LaunchNS: 26000, CopyNS: 9000, GlobalBarrierNS: 4500, GBOccupancyPenalty: 1.15,
			EdgeThroughput: 0.85, ItemOverheadNS: 1.1,
			AtomicNS: 6.5, AtomicDataNS: 3.4,
			JITCombinesAtomics: true, CombineEfficiency: 0.5, CoopOverheadNS: 21.0,
			SubgroupBarrierNS: 1, WorkgroupBarrierNS: 44, WGBarrier256Factor: 2.4,
			FG1CostPerEdge: 1.60, FG8CostPerEdge: 0.85,
			LineFetchNS: 38, CacheLinesPerCU: 6,
			LocalMemNS: 1.5, DivergencePenaltyNS: 0.75, BarrierDivergenceRelief: 0.24,
			Occupancy256: 0.97, MaxWorkgroup: 256, NoiseSigma: 0.035,
		},
		{
			Name: IRIS, Vendor: "Intel", Arch: "Broadwell GT3", OS: "Windows",
			CUs: 47, SubgroupSize: 16,
			LaunchNS: 24000, CopyNS: 8500, GlobalBarrierNS: 4500, GBOccupancyPenalty: 1.15,
			EdgeThroughput: 1.5, ItemOverheadNS: 1.0,
			AtomicNS: 25, AtomicDataNS: 4.2,
			JITCombinesAtomics: false, CombineEfficiency: 0.62, CoopOverheadNS: 2.4,
			SubgroupBarrierNS: 1, WorkgroupBarrierNS: 42, WGBarrier256Factor: 2.4,
			FG1CostPerEdge: 1.55, FG8CostPerEdge: 0.80,
			LineFetchNS: 36, CacheLinesPerCU: 6,
			LocalMemNS: 1.4, DivergencePenaltyNS: 0.70, BarrierDivergenceRelief: 0.25,
			Occupancy256: 1.0, MaxWorkgroup: 512, NoiseSigma: 0.035,
		},
		{
			Name: R9, Vendor: "AMD", Arch: "GCN", OS: "Windows",
			CUs: 28, SubgroupSize: 64,
			LaunchNS: 32000, CopyNS: 16000, GlobalBarrierNS: 4000, GBOccupancyPenalty: 1.15,
			EdgeThroughput: 4.6, ItemOverheadNS: 0.5,
			AtomicNS: 32, AtomicDataNS: 5.5,
			JITCombinesAtomics: false, CombineEfficiency: 0.36, CoopOverheadNS: 1.8,
			SubgroupBarrierNS: 0, WorkgroupBarrierNS: 30, WGBarrier256Factor: 2.5,
			FG1CostPerEdge: 0.70, FG8CostPerEdge: 0.05,
			LineFetchNS: 30, CacheLinesPerCU: 3,
			LocalMemNS: 0.8, DivergencePenaltyNS: 0.45, BarrierDivergenceRelief: 0.28,
			Occupancy256: 1.02, MaxWorkgroup: 256, NoiseSigma: 0.030,
		},
		{
			Name: MALI, Vendor: "ARM", Arch: "Midgard T628", OS: "Linux",
			CUs: 4, SubgroupSize: 1,
			LaunchNS: 150000, CopyNS: 42000, GlobalBarrierNS: 9000, GBOccupancyPenalty: 1.12,
			EdgeThroughput: 0.11, ItemOverheadNS: 3.2,
			AtomicNS: 8.0, AtomicDataNS: 7.0,
			JITCombinesAtomics: false, CombineEfficiency: 0.5, CoopOverheadNS: 80.0,
			SubgroupBarrierNS: 3, WorkgroupBarrierNS: 75, WGBarrier256Factor: 2.2,
			FG1CostPerEdge: 1.40, FG8CostPerEdge: 0.80,
			LineFetchNS: 120, CacheLinesPerCU: 4,
			LocalMemNS: 3.0, DivergencePenaltyNS: 16.0, BarrierDivergenceRelief: 0.88,
			Occupancy256: 0.90, MaxWorkgroup: 256, NoiseSigma: 0.040,
		},
	}
}

// ByName returns the chip with the given short name.
func ByName(name string) (Chip, error) {
	for _, c := range All() {
		if c.Name == name {
			return c, nil
		}
	}
	return Chip{}, fmt.Errorf("chip: unknown chip %q", name)
}
