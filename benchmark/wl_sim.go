package main

import (
	"bytes"
	"sync"
	"time"

	"btr/internal/campaign"
	"btr/internal/exp"
	"btr/internal/sig"
)

// simSeeds is how many campaign seeds a full run cycles through. Two
// scenarios depend on the campaign seed, C1 and C8, whose fault patterns
// move a pass's allocations by 1.6 % (standard deviation over 80 seeds)
// and C1's work by a third; one seed per run would make runs with
// different -seed incomparable. Six average that down far enough for
// mallocs_per_op to hold its bound between runs, and in the eleven
// passes of a full run five of them recur, so their tables are checked
// byte for byte. A shorter run takes one seed for every 5 s.
const simSeeds = 6

// splitmix derives the i-th independent stream from the run seed.
func splitmix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// unstableTable is the one scenario of exp.DeterministicScenarios whose
// quick-mode table is not byte-deterministic: about one campaign seed in
// twenty renders a "worst window" that differs in its last digits from
// one run to the next (`btrcampaign -quick -only C8 -seed 1039 -workers 1`
// prints two different tables over a few runs). C8 runs in every pass and
// its trials are ops, but a table of its that differs is a note, not a
// failure: a workload may not contain an operation that fails.
const unstableTable = "C8"

// smokeScenarios are three cheap scenarios (about 30 ms together): the
// whole campaign of the smoke, and the cold pass that is set-up.
func smokeScenarios() []campaign.Scenario {
	var out []campaign.Scenario
	for _, sc := range exp.DeterministicScenarios() {
		switch sc.ID {
		case "E2", "E3", "E7":
			out = append(out, sc)
		}
	}
	return out
}

// corruptTables, when set (tests only), damages the expected tables so
// the byte-identity check must fail.
var corruptTables bool

// simCampaign is the closed-loop, one-worker workload: a pass runs every
// deterministic scenario of the campaign in quick mode; an op is one
// trial. No sockets and no wall pacing, so sig, plan, runtime, the
// kernel and the simulated network do all the work.
func simCampaign(h *harness) {
	params := campaign.Params{Quick: true}

	// Set-up is the campaign from nothing: construct the scenarios and
	// run the three cheapest through the runner with cold memos. (A cold
	// pass of everything would take a third of the run.)
	setUp := func() {
		params.Seed = splitmix(h.seed, simSeeds+len(h.setups))
		h.timeSetup(func(int) {
			sig.ResetMemos()
			for _, r := range campaign.Run(smokeScenarios(), campaign.Options{Params: params, Workers: 1}) {
				if r.Failed > 0 {
					h.failf("sim_campaign: set-up: %d trials of %s failed", r.Failed, r.ID)
				}
			}
		})
	}

	scen := exp.DeterministicScenarios()
	seeds := min(max(int(h.seconds/5), 1), simSeeds)
	if h.short {
		scen = smokeScenarios()
	}
	// The tables of each seed's first pass: all but C8's, and C8's.
	want, wantUnstable := make([][]byte, seeds), make([][]byte, seeds)
	shares := map[string]float64{}
	var work float64
	var vh0, vm0, sh0, sm0 uint64
	var verifies, seals, verifyHits, sealHits uint64

	start := time.Now()
	var lastPass time.Duration
	for pass := 0; pass < 2 || time.Since(start)+lastPass/2 < h.dur(); pass++ {
		for i := 0; i < 3 && h.moreSetup(); i++ {
			setUp()
		}
		params.Seed = splitmix(h.seed, pass%seeds)
		var mu sync.Mutex // OnTrial is called from the worker goroutine
		elapsed := make([]float64, 0, 64)
		passSpan := h.rec.begin("campaign.Run", -1, pass)
		opts := campaign.Options{Params: params, Workers: 1, OnTrial: func(id string, tr campaign.TrialResult) {
			mu.Lock()
			elapsed = append(elapsed, ms(tr.Elapsed))
			mu.Unlock()
			h.rec.add("trial."+id, passSpan, tr.Index, tr.Elapsed)
		}}

		c0 := h.begin()
		sig.ResetMemos()
		vh0, vm0, sh0, sm0 = sig.MemoStats()
		t0 := time.Now()
		res := campaign.Run(scen, opts)
		lastPass = time.Since(t0)
		seg := h.end(c0)
		h.rec.end(passSpan)

		vh, vm, sh, sm := sig.MemoStats()
		verifies += vh - vh0 + vm - vm0
		verifyHits += vh - vh0
		seals += sh - sh0 + sm - sm0
		sealHits += sh - sh0

		var tables, unstable bytes.Buffer
		trials, failedTrials := 0, 0
		for _, r := range res {
			if r.ID == unstableTable {
				exp.WriteResult(&unstable, r)
			} else {
				exp.WriteResult(&tables, r)
			}
			trials += len(r.Trials)
			failedTrials += r.Failed
			shares[r.ID] += r.Work.Seconds()
			work += r.Work.Seconds()
		}
		k := pass % seeds
		if want[k] == nil {
			want[k], wantUnstable[k] = tables.Bytes(), unstable.Bytes()
			if corruptTables {
				want[k] = append([]byte("corrupted\n"), want[k]...)
			}
		}
		if !bytes.Equal(unstable.Bytes(), wantUnstable[k]) {
			h.notef("pass %d (seed %d): the %s table differs from the seed's first pass", pass, params.Seed, unstableTable)
		}
		switch {
		case !bytes.Equal(tables.Bytes(), want[k]):
			h.failf("sim_campaign: pass %d (seed %d) rendered tables that differ from the seed's first pass", pass, params.Seed)
			seg.failed = int64(trials)
		case failedTrials > 0:
			h.failf("sim_campaign: pass %d: %d trials failed", pass, failedTrials)
			seg.ops, seg.failed = int64(trials-failedTrials), int64(failedTrials)
		default:
			seg.ops = int64(trials)
		}
		seg.latMs = median(elapsed)
	}

	t := h.totals()
	ops := float64(max(t.ops, 1))
	h.layer["campaign.pass_ms"] = median(h.perSegment(func(s segment) float64 { return s.wall * 1e3 }))
	h.layer["campaign.pass_per_probe"] = h.layer["campaign.pass_ms"] / median(h.probesMs)
	h.layer["campaign.trials_per_pass"] = float64(t.ops+t.failed) / float64(len(h.segs))
	for id, w := range shares {
		h.layer["campaign.share."+id] = w / work
	}
	h.layer["sig.verify_hit_frac"] = float64(verifyHits) / float64(max(verifies, 1))
	h.layer["sig.seal_hit_frac"] = float64(sealHits) / float64(max(seals, 1))
	h.layer["sig.verifies_per_op"] = float64(verifies) / ops
	h.layer["sig.seals_per_op"] = float64(seals) / ops
}
