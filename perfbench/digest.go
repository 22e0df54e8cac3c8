package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"

	"iscope/internal/scheduler"
)

// digestTable maps workload -> seed -> reference digest. The table in
// digests.json was recorded from this benchmark at the commit that
// introduced it; a run whose seed has no entry still checks that every
// repetition (and the resume-from-checkpoint run) agrees bit for bit.
type digestTable map[string]map[string]string

func loadDigests(path string) (digestTable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read digest table: %w", err)
	}
	var t digestTable
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("parse digest table %s: %w", path, err)
	}
	return t, nil
}

// ref returns the committed digest for (workload, seed), if any. An
// engine workload's entry lists one digest per job trace, comma-separated.
func (t digestTable) ref(workload string, seed uint64) (string, bool) {
	d, ok := t[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

// resultDigest covers the bits of a run's energy, cost, violations,
// makespan and utilization-variance figures.
func resultDigest(r *scheduler.Result) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, f := range []float64{
		float64(r.UtilityEnergy), float64(r.WindEnergy), float64(r.WindAvailable), float64(r.TotalEnergy),
		float64(r.Cost), float64(r.UtilityCost), float64(r.Makespan), r.UtilVariance,
	} {
		put(math.Float64bits(f))
	}
	put(uint64(r.DeadlineViolations))
	put(uint64(r.JobsCompleted))
	return fmt.Sprintf("%016x", h.Sum64())
}

// bytesDigest names a byte string (the daemon's sealed result JSON).
func bytesDigest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// digestKey names a run's row in the table. The daemon stream's length
// follows the measurement window, so its rows are per window length.
func digestKey(o options) string {
	k := o.workload
	if k == "daemon-stream" {
		k += fmt.Sprintf("/%gs", o.seconds)
	}
	if o.smoke {
		k += "/smoke"
	}
	return k
}

// recordDigests computes, in process and untimed, the reference digest
// of every workload for each seed, and returns the table.
func recordDigests(o options, seeds []uint64) (digestTable, error) {
	t := digestTable{}
	for _, wl := range []string{"fair-fleet", "effi-hostile", "daemon-stream"} {
		o.workload = wl
		row := map[string]string{}
		for _, seed := range seeds {
			var d string
			if wl == "daemon-stream" {
				p := daemonLadder.layout(o.seconds, len(daemonTenants))
				s, err := makeStream(seed, daemonTenants, p.total, p.submits[0])
				if err != nil {
					return nil, err
				}
				runs, err := referenceRuns(s, nil, false)
				if err != nil {
					return nil, err
				}
				var parts [][]byte
				for _, r := range runs {
					parts = append(parts, r.json)
				}
				d = bytesDigest(parts...)
			} else {
				in, _, err := buildEngine(engineShapeFor(wl, false), seed, nil)
				if err != nil {
					return nil, err
				}
				var ds []string
				for k := range in.jobs {
					rs, err := in.runRep(k, repOpts{})
					if err != nil {
						return nil, err
					}
					ds = append(ds, rs.digest)
				}
				d = strings.Join(ds, ",")
			}
			row[strconv.FormatUint(seed, 10)] = d
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", wl, seed, d)
		}
		t[digestKey(o)] = row
	}
	return t, nil
}
