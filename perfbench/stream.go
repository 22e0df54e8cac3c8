package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"iscope/internal/service"
	"iscope/internal/units"
)

// tenantShape is one streamed tenant: the paper's 4,800-processor
// datacenter under one scheme.
type tenantShape struct{ scheme string }

const (
	tenantProcs = 4800
	// jobsPerSubmit is the batch size of one submit request.
	jobsPerSubmit = 2
	// tenantJobsPerDay is the paper's arrival density for 4,800 procs.
	tenantJobsPerDay = 12000
	// An advance trails the newest submitted arrival by baseLag during
	// the first baseSubmits submits of a stream and by drainLag after
	// them, so the final drain still has a day's worth of simulation to
	// do.
	baseLag  = 3600
	drainLag = 16 * 3600
)

const (
	reqSubmit = iota
	reqAdvance
	reqStatus
)

// request is one pre-encoded call of a tenant's stream.
type request struct {
	kind   int
	method string
	path   string
	body   []byte
	submit int // index of the submit among the tenant's submits
}

// stream is a deterministic multi-tenant request sequence: per tenant,
// job-batch submits in virtual-time order, every second followed by an
// advance that trails the newest arrival (see baseLag), every
// sixteenth by a status read.
type stream struct {
	specs     []service.TenantSpec
	perTenant [][]request
	jobs      [][]service.JobSubmission // every submitted job, per tenant
}

func makeStream(seed uint64, shapes []tenantShape, submits, baseSubmits int) (*stream, error) {
	s := &stream{}
	njobs := submits * jobsPerSubmit
	span := units.Days(float64(njobs) / tenantJobsPerDay)
	for k, sh := range shapes {
		spec := service.TenantSpec{
			Name:      fmt.Sprintf("t%d", k),
			Scheme:    sh.scheme,
			Seed:      seed + uint64(k),
			FleetSeed: fleetSeed(seed) + uint64(k),
			Procs:     tenantProcs,
			Wind:      &service.WindSpec{Seed: referenceWindSeed + uint64(k), Days: float64(span)/86400 + 2, MeanFrac: 0.6},
		}
		tr, err := synthesize(jobSeed(seed, 8+k), njobs, 64, span)
		if err != nil {
			return nil, err
		}
		subs := make([]service.JobSubmission, len(tr.Jobs))
		for i, j := range tr.Jobs {
			subs[i] = service.JobSubmission{ID: j.ID, At: float64(j.Submit), Runtime: float64(j.Runtime),
				Procs: j.Procs, Boundness: j.Boundness, Deadline: float64(j.Deadline)}
		}
		base := "/v1/tenants/" + spec.Name
		var reqs []request
		lastTo := 0.0
		for i := 0; i < submits; i++ {
			batch := subs[i*jobsPerSubmit : (i+1)*jobsPerSubmit]
			body, err := json.Marshal(service.SubmitRequest{Jobs: batch})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, request{kind: reqSubmit, method: http.MethodPost, path: base + "/jobs", body: body, submit: i})
			if i%2 == 1 {
				lag := float64(baseLag)
				if i >= baseSubmits {
					lag = drainLag
				}
				to := max(lastTo, batch[len(batch)-1].At-lag)
				lastTo = to
				body, _ := json.Marshal(service.AdvanceRequest{To: to})
				reqs = append(reqs, request{kind: reqAdvance, method: http.MethodPost, path: base + "/advance", body: body, submit: i})
			}
			if i%16 == 15 {
				reqs = append(reqs, request{kind: reqStatus, method: http.MethodGet, path: base, submit: i})
			}
		}
		s.specs = append(s.specs, spec)
		s.perTenant = append(s.perTenant, reqs)
		s.jobs = append(s.jobs, subs[:submits*jobsPerSubmit])
	}
	return s, nil
}

// loadClient is the load generator's HTTP client: at most nproc
// connections to the daemon.
func loadClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}
}

// sample is one request's outcome. Latency runs from the request's due
// time (its send time in a closed loop) to the end of its response.
type sample struct {
	kind    int
	submit  int
	due     time.Time
	sent    time.Time
	done    time.Time
	status  int
	fired   int // events fired, for advances
	failure string
}

func (s sample) latency() float64 { return s.done.Sub(s.due).Seconds() }
func (s sample) ok() bool         { return s.status >= 200 && s.status < 300 }

// call sends one request and reads the whole reply.
func call(ctx context.Context, c *http.Client, base, method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// play sends every tenant's requests in order, one sender per tenant.
// due(k, i) gives request i of tenant k its send time; a nil due plays
// the stream closed-loop (each request as soon as the previous one
// returns).
func play(ctx context.Context, c *http.Client, base string, s *stream, due func(k, i int) time.Time) [][]sample {
	out := make([][]sample, len(s.perTenant))
	var wg sync.WaitGroup
	for k := range s.perTenant {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			reqs := s.perTenant[k]
			res := make([]sample, len(reqs))
			for i, r := range reqs {
				var when time.Time
				if due != nil {
					when = due(k, i)
					if d := time.Until(when); d > 0 {
						time.Sleep(d)
					}
				}
				sm := sample{kind: r.kind, submit: r.submit, sent: time.Now()}
				sm.due = sm.sent
				if due != nil {
					sm.due = when
				}
				status, body, err := call(ctx, c, base, r.method, r.path, r.body)
				sm.done = time.Now()
				sm.status = status
				if err != nil {
					sm.failure = err.Error()
				} else if !sm.ok() {
					sm.failure = string(body)
				} else if r.kind == reqAdvance {
					var ar service.AdvanceResponse
					if err := json.Unmarshal(body, &ar); err != nil {
						sm.failure = err.Error()
						sm.status = 0
					}
					sm.fired = ar.Fired
				}
				res[i] = sm
			}
			out[k] = res
		}(k)
	}
	wg.Wait()
	return out
}

// createTenants creates every tenant of s.
func createTenants(ctx context.Context, c *http.Client, base string, s *stream) error {
	for _, spec := range s.specs {
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		status, reply, err := call(ctx, c, base, http.MethodPost, "/v1/tenants", body)
		if err != nil {
			return fmt.Errorf("create %s: %w", spec.Name, err)
		}
		if status != http.StatusCreated {
			return fmt.Errorf("create %s: %d %s", spec.Name, status, reply)
		}
	}
	return nil
}
