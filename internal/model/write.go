package model

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"aved/internal/units"
)

// WriteInfrastructure renders a bound infrastructure model back into
// the specification language (the Fig. 3 format). Writing a bound
// model and reparsing the output yields the identical values — every
// cost and duration renders exactly — which lets programs edit
// infrastructure programmatically and persist it.
func WriteInfrastructure(w io.Writer, inf *Infrastructure) error {
	bw := bufio.NewWriter(w)
	for _, name := range inf.componentOrder {
		writeComponent(bw, inf.Components[name])
	}
	for _, name := range inf.mechanismOrder {
		writeMechanism(bw, inf.Mechanisms[name])
	}
	for _, name := range inf.resourceOrder {
		writeResource(bw, inf.Resources[name])
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write infrastructure: %w", err)
	}
	return nil
}

// Spec renders the infrastructure as spec text.
func (inf *Infrastructure) Spec() string {
	var sb strings.Builder
	// strings.Builder writes never fail.
	_ = WriteInfrastructure(&sb, inf)
	return sb.String()
}

func writeComponent(w *bufio.Writer, c *Component) {
	fmt.Fprintf(w, "component=%s %s", c.Name, costAttr(c.CostInactive, c.CostActive))
	if c.MaxInstances > 0 {
		fmt.Fprintf(w, " max_instances=%d", c.MaxInstances)
	}
	if c.HasLossWindow {
		if c.LossWindowRef != "" {
			fmt.Fprintf(w, " loss_window=<%s>", c.LossWindowRef)
		} else {
			fmt.Fprintf(w, " loss_window=%s", c.LossWindow.Spec())
		}
	}
	fmt.Fprintln(w)
	for _, f := range c.Failures {
		mtbf := f.MTBF.Spec()
		if f.MTBFRef != "" {
			mtbf = "<" + f.MTBFRef + ">"
		}
		mttr := f.MTTR.Spec()
		if f.MTTRRef != "" {
			mttr = "<" + f.MTTRRef + ">"
		}
		fmt.Fprintf(w, "  failure=%s mtbf=%s mttr=%s detect_time=%s\n",
			f.Name, mtbf, mttr, f.DetectTime.Spec())
	}
}

func costAttr(inactive, active units.Money) string {
	if inactive == active {
		return "cost=" + active.Spec()
	}
	return fmt.Sprintf("cost([inactive,active])=[%s %s]", inactive.Spec(), active.Spec())
}

func writeMechanism(w *bufio.Writer, m *Mechanism) {
	fmt.Fprintf(w, "mechanism=%s\n", m.Name)
	for _, p := range m.Params {
		if p.IsEnum() {
			fmt.Fprintf(w, "  param=%s range=[%s]\n", p.Name, strings.Join(p.Enum, ","))
		} else {
			fmt.Fprintf(w, "  param=%s range=%s\n", p.Name, units.FormatDurationGrid(p.Grid))
		}
	}
	for _, e := range m.Effects {
		vals := make([]string, 0, len(e.Costs)+len(e.Times))
		for _, c := range e.Costs {
			vals = append(vals, c.Spec())
		}
		for _, d := range e.Times {
			vals = append(vals, d.Spec())
		}
		if e.ByParam != "" {
			fmt.Fprintf(w, "  %s(%s)=[%s]\n", e.Attr, e.ByParam, strings.Join(vals, " "))
		} else { // a pass-through has no entries, a scalar exactly one
			fmt.Fprintf(w, "  %s=%s%s\n", e.Attr, e.Pass, strings.Join(vals, ""))
		}
	}
}

func writeResource(w *bufio.Writer, r *ResourceType) {
	fmt.Fprintf(w, "resource=%s reconfig_time=%s\n", r.Name, r.ReconfigTime.Spec())
	for _, rc := range r.Components {
		dep := rc.DependsOn
		if dep == "" {
			dep = "null"
		}
		fmt.Fprintf(w, "  component=%s depend=%s startup=%s\n", rc.Component.Name, dep, rc.Startup.Spec())
	}
}

// WriteService renders a service model back into the specification
// language (the Fig. 4/5 format).
func WriteService(w io.Writer, svc *Service) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "application=%s", svc.Name)
	if svc.HasJobSize {
		fmt.Fprintf(bw, " jobsize=%g", svc.JobSize)
	}
	fmt.Fprintln(bw)
	if svc.Reqs != nil {
		writeRequirements(bw, svc.Reqs)
	}
	for ti := range svc.Tiers {
		tier := &svc.Tiers[ti]
		fmt.Fprintf(bw, "tier=%s\n", tier.Name)
		for oi := range tier.Options {
			writeOption(bw, &tier.Options[oi])
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write service: %w", err)
	}
	return nil
}

// Spec renders the service as spec text.
func (s *Service) Spec() string {
	var sb strings.Builder
	_ = WriteService(&sb, s)
	return sb.String()
}

func writeRequirements(w *bufio.Writer, r *Requirements) {
	switch r.Kind {
	case ReqEnterprise:
		fmt.Fprintf(w, "requirements=enterprise\n")
		if len(r.Traffic) > 0 {
			samples := make([]string, len(r.Traffic))
			for i, v := range r.Traffic {
				samples[i] = fmt.Sprintf("%g", v)
			}
			fmt.Fprintf(w, "  traffic(hour)=[%s]\n", strings.Join(samples, " "))
		} else {
			fmt.Fprintf(w, "  throughput=%g\n", r.Throughput)
		}
		fmt.Fprintf(w, "  max_annual_downtime=%s\n", r.MaxAnnualDowntime)
		if r.DegradedThroughput > 0 {
			fmt.Fprintf(w, "  degraded_throughput=%g\n", r.DegradedThroughput)
		}
	case ReqJob:
		fmt.Fprintf(w, "requirements=job\n  max_job_time=%s\n", r.MaxJobTime)
	}
}

func writeOption(w *bufio.Writer, opt *ResourceOption) {
	fmt.Fprintf(w, "  resource=%s sizing=%s failurescope=%s\n", opt.Resource, opt.Sizing, opt.FailureScope)
	fmt.Fprintf(w, "    nActive=%s", opt.NActive)
	if opt.PerfIsScalar {
		fmt.Fprintf(w, " performance=%g\n", opt.PerfScalar)
	} else {
		fmt.Fprintf(w, " performance(nActive)=%s\n", opt.PerfRef)
	}
	for _, mp := range opt.MechPerf {
		fmt.Fprintf(w, "    mechanism=%s mperformance(%s)=%s\n",
			mp.Mechanism, strings.Join(mp.Args, ","), mp.Ref)
	}
}
