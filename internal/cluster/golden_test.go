package cluster

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"runtime"
	"testing"
	"time"

	"millibalance/internal/adapt"
	"millibalance/internal/obs"
)

// The golden digests pin the simulated statistics of every request-path
// variant to values recorded before the request path was last
// restructured. A change that only makes the simulator faster must leave
// each of them byte-identical; a change that alters the model must
// re-record them and say why.

// goldenDigest hashes the fields the end-to-end benchmark digests
// (e2ebench/sim.go): outcome counts, transport and balancer counters,
// the response-time histogram and every server's completion count. With
// spans armed it also hashes each stage's total over the retained spans,
// which pins the span path's stage attribution.
func goldenDigest(res *Results) string {
	h := sha256.New()
	r := res.Responses
	fmt.Fprintf(h, "issued=%d total=%d failures=%d vlrt=%d retx=%d\n",
		res.Issued, r.Total(), r.Failures(), r.VLRTCount(), r.Retransmits())
	fmt.Fprintf(h, "drops=%d retransmits=%d giveups=%d rejects=%d sheds=%d\n",
		res.Drops, res.Retransmits, res.GiveUps, res.Rejects, res.AdmissionSheds)
	for _, b := range r.Histogram().Buckets() {
		fmt.Fprintf(h, "b %d %d\n", b.Lower, b.Count)
	}
	goldenServed(h, "web", res.Webs)
	goldenServed(h, "app", res.Apps)
	goldenServed(h, "db", []*ServerStats{res.DB})
	if res.Spans != nil {
		var sums [obs.StageWebThread + 1]time.Duration
		spans := res.Spans.Spans()
		for i := range spans {
			for st := range sums {
				sums[st] += spans[i].Duration(obs.Stage(st))
			}
		}
		fmt.Fprintf(h, "spans=%d stages=%v\n", len(spans), sums)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func goldenServed(h hash.Hash, tier string, servers []*ServerStats) {
	for _, s := range servers {
		fmt.Fprintf(h, "%s %s %d\n", tier, s.Name, s.Served)
	}
}

// goldenVariant is one request-path variant: a config, an optional
// pre-run hook, and a check that the variant really exercised its path.
type goldenVariant struct {
	name   string
	want   string
	config func() Config
	arm    func(*Cluster)
	check  func(*testing.T, *Results)
}

func goldenVariants() []goldenVariant {
	return []goldenVariant{
		{
			name: "failing_arm",
			want: "1a87e32816a6969da939e1dd38dee8e038e44bc8658a2872ce0fa25d49dc8310",
			config: func() Config {
				cfg := PaperConfig()
				cfg.Duration = 6 * time.Second
				return cfg
			},
			check: func(t *testing.T, res *Results) {
				if res.Drops == 0 {
					t.Error("failing arm dropped no connections")
				}
			},
		},
		{
			name:   "failing_arm_mini",
			want:   "9238cea1978c241bcd902c7bdde1080c12e91b6ca2744897f62b6c6fab182690",
			config: MiniConfig,
		},
		{
			name: "remedy",
			want: "9207b0ea7cdd4b38fcb4d8afa42669b81013c9c24299d5df2094cf58275cfa7b",
			config: func() Config {
				cfg := MiniConfig()
				cfg.Mechanism = "modified_get_endpoint"
				return cfg
			},
		},
		{
			name: "tracing",
			want: "b47fe886e891d91e45272932d84f318eb140f26fbdd5ebb71ed90aa7b1ebd0e9",
			config: func() Config {
				cfg := MiniConfig()
				cfg.SpanCapacity = 1 << 16
				cfg.TraceCapacity = 1 << 16
				cfg.EventCapacity = 1 << 14
				return cfg
			},
		},
		{
			name: "admission_queue",
			want: "0ac2422353b22c6583e2f71bbfb9f0044ed11fe10733b4716fcee964b884270f",
			config: func() Config {
				cfg := admissionMini()
				cfg.Admission.MaxWait = 200 * time.Millisecond
				return cfg
			},
			arm: func(c *Cluster) {
				c.Eng.Schedule(2*time.Second, func() { c.Apps[0].CPU().Stall(3 * time.Second) })
			},
			check: func(t *testing.T, res *Results) {
				var waited uint64
				for _, st := range res.Admission {
					waited += st.DropsMaxWait + st.DropsCoDel
				}
				if waited == 0 {
					t.Error("no request timed out of the admission queue: the queue path never ran")
				}
			},
		},
		{
			name: "prequal_probes",
			want: "98b41734627fad1f866fd436841c7b7cdb648fe4f43277aec4ddb4be47c6466c",
			config: func() Config {
				cfg := MiniConfig()
				cfg.Policy = "prequal"
				return cfg
			},
		},
		{
			name: "adaptive",
			want: "7e8b71ae7aeca449ec12b39885a9e7a396beea631f42a6f0926c4e7f70ac2135",
			config: func() Config {
				cfg := MiniConfig()
				cfg.Adaptive = &adapt.Config{}
				return cfg
			},
			check: func(t *testing.T, res *Results) {
				if res.Adapt.Count(adapt.ActionQuarantine) == 0 {
					t.Error("no quarantine decisions: the probe path never ran")
				}
			},
		},
		{
			name: "open_loop",
			want: "3d6eb8f8abc5bdfda4d4eb45ad589211165035447b32d84cfc35cb1150981b8d",
			config: func() Config {
				cfg := MiniConfig()
				cfg.OpenLoopRate = 900
				return cfg
			},
		},
	}
}

// TestGoldenDigests replays every request-path variant and compares its
// digest with the recorded one. The digests were recorded on amd64:
// architectures that fuse floating-point multiply-adds (arm64, ppc64,
// s390x) may round the model's float arithmetic differently, so the
// test runs on amd64 only.
func TestGoldenDigests(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests recorded on amd64; %s may fuse float operations differently", runtime.GOARCH)
	}
	for _, v := range goldenVariants() {
		t.Run(v.name, func(t *testing.T) {
			c := New(v.config())
			if v.arm != nil {
				v.arm(c)
			}
			res := c.Run()
			if v.check != nil {
				v.check(t, res)
			}
			if got := goldenDigest(res); got != v.want {
				t.Errorf("digest %s, want %s", got, v.want)
			}
		})
	}
}
