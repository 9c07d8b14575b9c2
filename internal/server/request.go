package server

import (
	"errors"
	"fmt"

	"aved"
)

// SolveRequest is the body of POST /v1/solve: the design problem (an
// infrastructure, a service and one requirement) plus per-request
// search and engine knobs. Specs come either inline (Fig. 3/4/5 text in
// InfraSpec/ServiceSpec) or as a built-in paper scenario name.
type SolveRequest struct {
	// Paper selects a built-in scenario: "apptier", "ecommerce" or
	// "scientific". Mutually exclusive with InfraSpec/ServiceSpec.
	Paper string `json:"paper,omitempty"`
	// InfraSpec is a Fig. 3 infrastructure spec.
	InfraSpec string `json:"infraSpec,omitempty"`
	// ServiceSpec is a Fig. 4/5 service spec.
	ServiceSpec string `json:"serviceSpec,omitempty"`

	// Load is the required throughput in service units (enterprise).
	Load float64 `json:"load,omitempty"`
	// MaxDowntime is the annual downtime budget, e.g. "100m" (enterprise).
	MaxDowntime string `json:"maxDowntime,omitempty"`
	// MaxJobTime is the job-completion-time budget, e.g. "50h" (jobs).
	MaxJobTime string `json:"maxJobTime,omitempty"`

	// Bronze pins maintenance contracts to bronze (the §5.2 setup).
	Bronze bool `json:"bronze,omitempty"`
	// WarmSpares explores per-component spare operational modes.
	WarmSpares bool `json:"warmSpares,omitempty"`
	// Workers bounds the sim engine's replication worker pool (0 =
	// server default). The solve itself runs on one goroutine.
	Workers int `json:"workers,omitempty"`

	// Search selects the tier-search strategy: "" or "bnb" for
	// branch-and-bound, "exhaustive" for the reference grid walk. The
	// returned design is identical either way; only the effort counters
	// differ.
	Search string `json:"search,omitempty"`

	// EngineParams select the availability engine.
	EngineParams

	// TimeoutMS is the per-request deadline in milliseconds. Zero means
	// the server default; the server's max-timeout caps it either way.
	TimeoutMS int64 `json:"timeoutMs,omitempty"`
	// NoCache skips the response cache (the request still joins an
	// identical in-flight solve).
	NoCache bool `json:"noCache,omitempty"`
}

// EngineParams are the availability-engine knobs of a solve or sweep
// request. They mirror the CLI flags of the same names, and zero Seed,
// Years and Reps take those flags' defaults.
type EngineParams struct {
	// Engine selects the availability engine: "", "markov", "exact" or
	// "sim".
	Engine string `json:"engine,omitempty"`
	// Seed, Years, Reps, RelErr and SimBatch configure engine "sim".
	Seed     int64   `json:"seed,omitempty"`
	Years    float64 `json:"years,omitempty"`
	Reps     int     `json:"reps,omitempty"`
	RelErr   float64 `json:"relErr,omitempty"`
	SimBatch int     `json:"simBatch,omitempty"`
}

// spec resolves the params into an engine spec replicating on workers.
func (p *EngineParams) spec(workers int) aved.EngineSpec {
	spec := aved.EngineSpec{Name: p.Engine, Seed: p.Seed, Years: p.Years, Reps: p.Reps,
		Workers: workers, RelErr: p.RelErr, SimBatch: p.SimBatch}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Years == 0 {
		spec.Years = 1000
	}
	if spec.Reps == 0 {
		spec.Reps = 32
	}
	return spec
}

// TierReport describes one tier of the returned design.
type TierReport struct {
	Tier       string            `json:"tier"`
	Resource   string            `json:"resource"`
	Actives    int               `json:"actives"`
	Spares     int               `json:"spares"`
	SpareMode  string            `json:"spareMode,omitempty"`
	Mechanisms map[string]string `json:"mechanisms,omitempty"`
}

// SolveResponse is the body of a successful POST /v1/solve.
type SolveResponse struct {
	Label           string       `json:"label"`
	CostPerYear     float64      `json:"costPerYear"`
	Cost            string       `json:"cost"`
	DowntimeMinutes float64      `json:"downtimeMinutes,omitempty"`
	JobTimeHours    float64      `json:"jobTimeHours,omitempty"`
	Tiers           []TierReport `json:"tiers"`
	// Stats is the search effort. The server always runs timed (its
	// shared metrics registry enables timing), so it carries
	// phaseNanos; those entries overlap ("eval" time accrues inside the
	// bracketed phases) and do not sum to the request's elapsed time.
	Stats aved.Stats `json:"stats"`

	// Cached marks a response served from the cross-request cache;
	// Shared marks one computed by an identical concurrent request the
	// caller joined. ElapsedMS is this request's wall time either way.
	Cached    bool    `json:"cached,omitempty"`
	Shared    bool    `json:"shared,omitempty"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	// Error is the human-readable message.
	Error string `json:"error"`
	// Kind classifies it: "bad_request", "infeasible", "canceled",
	// "overloaded" or "internal".
	Kind string `json:"kind"`
	// Stats carries the partial search effort for canceled solves.
	Stats *aved.Stats `json:"stats,omitempty"`
}

// validate checks the request shape without doing any parsing work.
func (r *SolveRequest) validate() error {
	switch {
	case r.Paper != "" && (r.InfraSpec != "" || r.ServiceSpec != ""):
		return errors.New("paper and inline specs are mutually exclusive")
	case r.Paper == "" && (r.InfraSpec == "" || r.ServiceSpec == ""):
		return errors.New("need either paper or both infraSpec and serviceSpec")
	}
	if r.MaxDowntime == "" && r.MaxJobTime == "" {
		return errors.New("need maxDowntime (with load) or maxJobTime")
	}
	if r.MaxDowntime != "" && r.MaxJobTime != "" {
		return errors.New("maxDowntime and maxJobTime are mutually exclusive")
	}
	if r.MaxDowntime != "" && r.Load <= 0 {
		return errors.New("enterprise requirements need load > 0")
	}
	if _, err := aved.ParseSearchMode(r.Search); err != nil {
		return err
	}
	if r.TimeoutMS < 0 {
		return fmt.Errorf("negative timeoutMs %d", r.TimeoutMS)
	}
	return nil
}

// searchMode resolves the request's search strategy.
func (r *SolveRequest) searchMode() (aved.SearchMode, error) {
	return aved.ParseSearchMode(r.Search)
}

// models resolves the request's infrastructure and service.
func (r *SolveRequest) models() (*aved.Infrastructure, *aved.Service, error) {
	if r.Paper != "" {
		return aved.PaperScenario(r.Paper)
	}
	inf, err := aved.LoadInfrastructure(r.InfraSpec)
	if err != nil {
		return nil, nil, fmt.Errorf("infraSpec: %w", err)
	}
	svc, err := aved.LoadService(r.ServiceSpec, inf)
	if err != nil {
		return nil, nil, fmt.Errorf("serviceSpec: %w", err)
	}
	return inf, svc, nil
}

// requirements resolves the request's requirement.
func (r *SolveRequest) requirements() (aved.Requirements, error) {
	if r.MaxJobTime != "" {
		d, err := aved.ParseDuration(r.MaxJobTime)
		if err != nil {
			return aved.Requirements{}, fmt.Errorf("maxJobTime: %w", err)
		}
		return aved.Requirements{Kind: aved.ReqJob, MaxJobTime: d}, nil
	}
	d, err := aved.ParseDuration(r.MaxDowntime)
	if err != nil {
		return aved.Requirements{}, fmt.Errorf("maxDowntime: %w", err)
	}
	return aved.Requirements{Kind: aved.ReqEnterprise, Throughput: r.Load, MaxAnnualDowntime: d}, nil
}

// buildResponse flattens a solution into the wire shape.
func buildResponse(sol *aved.Solution, req aved.Requirements) *SolveResponse {
	resp := &SolveResponse{
		Label:       sol.Design.Label(),
		CostPerYear: float64(sol.Cost),
		Cost:        sol.Cost.String(),
		Stats:       sol.Stats,
	}
	if req.Kind == aved.ReqEnterprise {
		resp.DowntimeMinutes = sol.DowntimeMinutes
	} else {
		resp.JobTimeHours = sol.JobTime.Hours()
	}
	for i := range sol.Design.Tiers {
		td := &sol.Design.Tiers[i]
		tr := TierReport{
			Tier:     td.TierName,
			Resource: td.Resource().Name,
			Actives:  td.NActive,
			Spares:   td.NSpare,
		}
		if td.NSpare > 0 {
			switch td.SpareWarm {
			case 0:
				tr.SpareMode = "cold"
			case len(td.Resource().Components):
				tr.SpareMode = "hot"
			default:
				tr.SpareMode = fmt.Sprintf("warm%d", td.SpareWarm)
			}
		}
		for _, ms := range td.Mechanisms {
			for name, v := range ms.Values {
				if tr.Mechanisms == nil {
					tr.Mechanisms = map[string]string{}
				}
				tr.Mechanisms[ms.Mechanism.Name+"."+name] = v.String()
			}
		}
		resp.Tiers = append(resp.Tiers, tr)
	}
	return resp
}
