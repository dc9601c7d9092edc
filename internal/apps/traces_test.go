package apps

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"gpuport/internal/graph"
	"gpuport/internal/irgl"
)

// pinKey names one pinned trace: an application at a version on a
// standard input.
type pinKey struct{ app, version, input string }

// pinnedTraces holds the sha256 of every standard pair's compact trace
// JSON (Trace.AppendJSONCompact), the trace cache's storage format.
var pinnedTraces = map[pinKey]string{
	{"bfs-wl", "1", "usa.ny"}:         "c7756b44587470ea2e086bd8ab61b292cbf0f38cd5494f5a1064d7b866b2212f",
	{"bfs-topo", "1", "usa.ny"}:       "5c95f6af15204382538f572e14017fcbec11663c0b14087574d163c54232b8b8",
	{"bfs-hybrid", "1", "usa.ny"}:     "c13747e97470ba5797896978bafdfd8f1d59b28cdc85446bd80fd306756e0f03",
	{"bfs-tp", "1", "usa.ny"}:         "34d654e5c7d0d7b94a47958f58cc963fa681d759a4d49c1739cb00a9bdae75e5",
	{"cc-sv", "1", "usa.ny"}:          "83ac489be5e1036a9443e73918bb55d3d6c619047265cacea2f8d41fd67c84ed",
	{"cc-wl", "1", "usa.ny"}:          "a2e653d92ff4f22b0d672146f3c77d6ff71171a9b89779d096cd7f25a93ec2d9",
	{"mis-wl", "1", "usa.ny"}:         "a2384756979221b26d40c86ca124136cceca785fbddb82372b2a57fc62951e05",
	{"mis-topo", "1", "usa.ny"}:       "052f74092d545128c081fa867df5bffd7eac2906fcb5a6f5b118c93da7e8f68c",
	{"mst-boruvka", "1", "usa.ny"}:    "6d821d5bc72ed07894096503f814f76297ccd8c4df8a093717e99d6817bdd1e7",
	{"pr-topo", "1", "usa.ny"}:        "54bae781409cb63b9402fb0e7eaab0efc67103b8f1bab098aef93c173ce1c524",
	{"pr-residual", "1", "usa.ny"}:    "d1dea9707f2ee3c0e93de02dea8b6dfb220a40d8fd9bd4a795c9938544866e7f",
	{"sssp-wl", "1", "usa.ny"}:        "74eb4d171acb2df86f916d49c10b44af4ec262e78921f7245ce69fc1ee235039",
	{"sssp-topo", "1", "usa.ny"}:      "e924de096bed824287e0c584b66b1a01036b2655b063abcbb518aa82c9262709",
	{"sssp-nf", "1", "usa.ny"}:        "1dae352bec4de68801eb6b5aa4b99e39d37db564d537faef5586016a5f547a9f",
	{"tri-bs", "1", "usa.ny"}:         "35ca83cd10c8250c24f56d7f50a60d411f4eda908e2d81adba0ce8cff316a1d5",
	{"tri-merge", "1", "usa.ny"}:      "fdc2ab5ffd316e104b6abb55338008ab445def498ee1dc42ca3579ca9797ffaa",
	{"tri-hash", "1", "usa.ny"}:       "fd6830505bc184d72a7bec456344dc08e0b3806d6ad60b7b3c3087dc4459212f",
	{"bfs-wl", "1", "soc-pokec"}:      "fb22560e34e64731b8e3dd4e3725c01f93775057da99e85d26c5403c225dffba",
	{"bfs-topo", "1", "soc-pokec"}:    "7ba6757da14556615131d8a3fb8b43ed941c8344f0293ff8a57e447da8820f71",
	{"bfs-hybrid", "1", "soc-pokec"}:  "48be25f8b261e4b952ce9dfd1a32d8d3a4e70d085be4f69fc822504c15671bea",
	{"bfs-tp", "1", "soc-pokec"}:      "fcbd0faa6529c81a3c73a9706bac76e9b3010c9c10d7121132310c98cf14bc03",
	{"cc-sv", "1", "soc-pokec"}:       "c9157acedfd9e478586f024000b1d3f830129e89132835d0ffb0427c2c697907",
	{"cc-wl", "1", "soc-pokec"}:       "5c72838983c075e2b72edd95c75b53b13bdb0a590017c29eaa996cfc02325590",
	{"mis-wl", "1", "soc-pokec"}:      "88da1b96bc146458301aa847157d7bf21ef07161f20479aac13d46daa6ba304c",
	{"mis-topo", "1", "soc-pokec"}:    "051c795e7c4e1e5c6bba8a08b3cb9859a309e337567d03a9c009424b6b8fc9be",
	{"mst-boruvka", "1", "soc-pokec"}: "b6dae06bf2f464ad08aea5390e7b33e71e7edab770a2b6807ae62e25a2327536",
	{"pr-topo", "1", "soc-pokec"}:     "6ea4419efa810188b70d4c022d8ff9340cd8d92d6a02e3dcf18b6bc2670901e3",
	{"pr-residual", "1", "soc-pokec"}: "91d7b01b3a2699969efc5dc7cbdf61aa4c1282fbec6a34323aef292f20a0594e",
	{"sssp-wl", "1", "soc-pokec"}:     "e58bb14d89241d8dc9496ee870695ebaeda3728058e0b6fbad43ba4393ded42f",
	{"sssp-topo", "1", "soc-pokec"}:   "a97b73713af38f70944100789406f1d9e115c4ace8049b03a5492dbff78757dd",
	{"sssp-nf", "1", "soc-pokec"}:     "4d31a41bb97b84ce54b6ce5c6491ffd0514714c30f86a3f15b64156698180738",
	{"tri-bs", "1", "soc-pokec"}:      "ed5cd4992d0a20b56d85e2711c772a380da49b66fa4745f01f04b62a75479acc",
	{"tri-merge", "1", "soc-pokec"}:   "b04983d1b6ea2e3de9d2f0c9a534679792390610b48c2b2b666f81dfbe0f446a",
	{"tri-hash", "1", "soc-pokec"}:    "d3c46c3aa52ded0b0db036d5d9be1d5e2b0faff5aef91ab2300d35740e65497d",
	{"bfs-wl", "1", "rand-8k"}:        "345c0f72e3ab6e063b5246fb2d7d13d4df1c14af6b1a65f313afa32a3d31c850",
	{"bfs-topo", "1", "rand-8k"}:      "a09f6a71b59916a80098c7d9b27a5b4a80b407d7f71a55e4d772948baed9d9c5",
	{"bfs-hybrid", "1", "rand-8k"}:    "a48ae0b4885f4e0fb31adb96b7899bdd379865a8b3e17864d82c5257839af5b9",
	{"bfs-tp", "1", "rand-8k"}:        "c0a58b37be0b89c0a697aada6bcd22cbaa9461e6bf8d97d3b4d4b30a5d9281c7",
	{"cc-sv", "1", "rand-8k"}:         "634342979eaaaf5dea2a13b260c18ea033a2c98aa0b0df00278d8bfff97f1a1f",
	{"cc-wl", "1", "rand-8k"}:         "46ec1ff54ffef0314732f1143d2db7262326337764fc4b60c39046e398fe469f",
	{"mis-wl", "1", "rand-8k"}:        "ba695e8a48eebb6f10df1a8ec495eb5ed55956cbbd48bb23bbc1d44d7ac6e2e4",
	{"mis-topo", "1", "rand-8k"}:      "7d130a6cb5449dd58ca8d561c56aa73aa2860b76ebc7f4bddfe7a504ece6f490",
	{"mst-boruvka", "1", "rand-8k"}:   "68a631dcb2f1ac9bdcf342f2c5583ba820d6838b962a01fc3b07266a6961fdc9",
	{"pr-topo", "1", "rand-8k"}:       "e27b19a9661ce02396a54928504e93f620a71d83a086d0c0235aa4bb2788664b",
	{"pr-residual", "1", "rand-8k"}:   "4c6112f1d65813f911d6ff34aaf192f9d5c7ee277b2478f35e23bb72a2215fed",
	{"sssp-wl", "1", "rand-8k"}:       "0b9012b7818c21477844325cae4e1dabadcf8c923ad95608d773b0f12334d368",
	{"sssp-topo", "1", "rand-8k"}:     "2cf2872e6637e5e5a7f73ab6f37eaf802b67f2f150cc865d81b5ee017b219138",
	{"sssp-nf", "1", "rand-8k"}:       "aa20cccd3865e79ec078b49290499975a38fc1feb485b6bcb4c7ed6adc5a7c85",
	{"tri-bs", "1", "rand-8k"}:        "59f943a33dc9b489cbe04e75759afe63c52ed3f57dada6362b3666161789cd93",
	{"tri-merge", "1", "rand-8k"}:     "8d798dc4eb98c06f855bcc5c1a343affd479df72056e6954e87863d22d41c3c3",
	{"tri-hash", "1", "rand-8k"}:      "76fd3e8fa4fd039225aca33a4526a7458428ce845afe970761d6ea0b137e54b9",
}

// TestStandardTracesPinned enforces the trace-cache contract in
// App.Version's doc: a trace may change only together with its
// application's version, because the cache keys on (Name, Version,
// input fingerprint) and would otherwise serve stale traces.
func TestStandardTracesPinned(t *testing.T) {
	inputs := graph.SharedStandardInputs()
	if want := len(All()) * len(inputs); len(pinnedTraces) != want {
		t.Errorf("%d pinned traces, want one per standard pair (%d)", len(pinnedTraces), want)
	}
	for _, in := range inputs {
		for _, app := range All() {
			tr, _ := app.Run(in)
			js := tr.AppendJSONCompact(nil)
			if back, err := irgl.ReadTraceJSON(js); err != nil || !reflect.DeepEqual(back, tr) {
				t.Errorf("%s on %s: the compact trace does not decode back to the trace (%v)", app.Name, in.Name, err)
			}
			key := pinKey{app.Name, app.Version, in.Name}
			got := fmt.Sprintf("%x", sha256.Sum256(js))
			if want, ok := pinnedTraces[key]; !ok || got != want {
				t.Errorf("%s on %s: trace sha256 %s, pinned %q at version %q: "+
					"a change that alters a trace must bump App.Version and re-pin as {%q, %q, %q}: %q",
					app.Name, in.Name, got, want, app.Version, key.app, key.version, key.input, got)
			}
		}
	}
}

// TestTraceAllocsScaleWithLaunches keeps tracing's allocations
// proportional to kernel launches, not to nodes or edges: a kernel may
// allocate its launch record and its closures, but visiting an edge or
// preparing a node's adjacency must not allocate. The bound is a count,
// so it holds without timing noise.
func TestTraceAllocsScaleWithLaunches(t *testing.T) {
	for _, in := range graph.SharedStandardInputs() {
		for _, app := range All() {
			tr, _ := app.Run(in)
			launches := tr.TotalLaunches()
			allocs := testing.AllocsPerRun(1, func() { app.Run(in) })
			if limit := float64(3*launches + 64); allocs > limit {
				t.Errorf("%s on %s: %.0f allocs for %d launches, want at most %.0f",
					app.Name, in.Name, allocs, launches, limit)
			}
		}
	}
}
