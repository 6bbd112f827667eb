package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sevsim/internal/artcache"
	"sevsim/internal/binio"
	"sevsim/internal/core"
	"sevsim/internal/dispatch"
	"sevsim/internal/faultinj"
	"sevsim/internal/journal"
	"sevsim/internal/report"
)

// layerProbes are the persistence, orchestration and rendering layers,
// measured on their own with the workload's real records and programs:
// a study pays them per cell, per unit or per lease, which the
// end-to-end numbers cannot separate.
type layerProbes struct {
	journalBytes int64
	cacheStats   artcache.Stats
	entryBytes   int
	leases       int
}

const (
	journalProbeRecords = 1024
	cachedPrepUnits     = 4 // traced units put through core.CachedExperiment cold and warm
)

func (d *driver) probeLayers(u studyOut) (layerProbes, error) {
	var p layerProbes
	var err error
	d.tr.do("layers", "", func() {
		for _, probe := range []func(*layerProbes, studyOut) error{
			d.probeJournal, d.probeCache, d.probeDispatch, d.probeCore,
		} {
			if err = probe(&p, u); err != nil {
				return
			}
		}
	})
	return p, err
}

// probeJournal appends cell-sized records, fsync included, then scans
// them back.
func (d *driver) probeJournal(p *layerProbes, u studyOut) error {
	dir, err := d.e.dir("journal")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "probe.jsonl")
	w, _, err := journal.Open(path, journal.Options{})
	if err != nil {
		return err
	}
	n := journalProbeRecords
	if d.e.smoke {
		n = 64
	}
	cells := u.st.Results
	for i := 0; i < n; i++ {
		var aerr error
		d.tr.do("journal.append", "", func() { aerr = w.Append("cell", cells[i%len(cells)]) })
		if aerr != nil {
			w.Close()
			return aerr
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	if fi, err := os.Stat(path); err == nil {
		p.journalBytes = fi.Size()
	}
	var recs []journal.Record
	d.tr.do("journal.scan", "", func() { recs, err = journal.Scan(path) })
	if err != nil {
		return err
	}
	if len(recs) != n {
		d.fail("journal: scanned %d of %d appended records", len(recs), n)
	}
	return nil
}

// probeCache puts a few traced units through the prep-artifact cache:
// core.CachedExperiment cold (fill: golden passes, encode, fsync'd
// write, decode) and warm (read, checksum, decode), and artcache.Put/Get
// alone on a payload of a real entry's size.
func (d *driver) probeCache(p *layerProbes, _ studyOut) error {
	dir, err := d.e.dir("artcache")
	if err != nil {
		return err
	}
	cache, err := artcache.Open(dir, artcache.Options{})
	if err != nil {
		return err
	}
	opts := faultinj.Options{Traced: d.spec.Prune}
	for i, u := range d.units {
		if i == cachedPrepUnits {
			break
		}
		var payload []byte
		for _, name := range []string{"core.cached_prep_cold", "core.cached_prep_warm"} {
			var exp *faultinj.Experiment
			d.tr.do(name, u.id, func() { exp, err = core.CachedExperiment(cache, u.cfg, u.prog, opts) })
			if err != nil {
				return err
			}
			if exp.GoldenCycles != u.cyc {
				d.fail("%s: cached experiment has %d golden cycles, direct run had %d", u.id, exp.GoldenCycles, u.cyc)
			}
			if payload == nil {
				var w binio.Writer
				art := exp.Artifacts()
				art.EncodeTo(&w)
				payload = w.Bytes()
			}
			exp.Close()
		}
		p.entryBytes += len(payload)
		key := "sevbench-probe\x00" + u.id
		d.tr.do("artcache.put", u.id, func() { err = cache.Put(key, payload) })
		if err != nil {
			return err
		}
		var got []byte
		var ok bool
		d.tr.do("artcache.get", u.id, func() { got, ok = cache.Get(key) })
		if !ok || !bytes.Equal(got, payload) {
			d.fail("%s: artcache returned different bytes than were put", u.id)
		}
	}
	p.cacheStats = cache.Stats()
	return nil
}

// probeDispatch drives the coordinator's HTTP API by hand over loopback
// with the first unit of the workload as a small study: submit, then
// lease and complete (journal-before-ack included) until no work is
// left. The cells are computed between the two calls and not timed.
func (d *driver) probeDispatch(p *layerProbes, _ studyOut) error {
	mini := d.spec
	mini.Machines, mini.Benchmarks, mini.Levels = mini.Machines[:1], mini.Benchmarks[:1], mini.Levels[:1]
	mini.Parallelism = d.e.p
	svc, err := d.e.startService()
	if err != nil {
		return err
	}
	defer svc.stop()
	ctx, base := d.e.ctx, svc.ts.URL

	var sub dispatch.SubmitResponse
	d.tr.do("dispatch.submit", "", func() { err = postJSON(ctx, base+"/studies", dispatch.WireSpec(mini), &sub) })
	if err != nil {
		return err
	}
	for {
		var grant dispatch.LeaseGrant
		d.tr.do("dispatch.lease", "", func() {
			err = postJSON(ctx, base+"/v1/lease", dispatch.LeaseRequest{Worker: "probe"}, &grant)
		})
		if err != nil {
			return err
		}
		if grant.LeaseID == "" {
			break // 204: nothing left to lease
		}
		p.leases++
		spec, err := grant.Spec.Spec()
		if err != nil {
			return err
		}
		spec.Parallelism = d.e.p
		outcomes, err := spec.RunCells(ctx, grant.Cells)
		if err != nil {
			return err
		}
		d.tr.do("dispatch.complete", "", func() {
			err = postJSON(ctx, base+"/v1/complete", dispatch.CompleteRequest{
				Worker: "probe", LeaseID: grant.LeaseID, StudyID: grant.StudyID, Outcomes: outcomes,
			}, nil)
		})
		if err != nil {
			return err
		}
	}
	merged, ok := svc.coord.Result(sub.ID)
	if !ok {
		d.fail("dispatch: study %s did not complete after %d leases", sub.ID, p.leases)
		return nil
	}
	local, err := d.e.runLocal(mini, false)
	if err != nil {
		return err
	}
	if !bytes.Equal(merged, local.bytes) {
		d.fail("dispatch: merged bytes of the one-unit study differ from its local run")
	}
	return nil
}

// probeCore times the assembly of the whole reference study from cell
// outcomes, its save and load, and the rendering of every figure.
func (d *driver) probeCore(_ *layerProbes, u studyOut) error {
	spec := d.spec
	nt := len(spec.Targets)
	outcomes := make([]core.CellOutcome, len(u.st.Results))
	for i, r := range u.st.Results {
		o := core.CellOutcome{
			Cell:   core.CellRef{March: r.March, Bench: r.Bench, Level: r.Level, Target: r.Target},
			Result: r,
		}
		if i%nt == 0 { // the first cell of a unit carries its golden record
			o.Golden = &u.st.Goldens[i/nt]
			if u.st.Static != nil {
				o.Static = &u.st.Static[i/nt]
			}
		}
		outcomes[i] = o
	}
	var st *core.Study
	var err error
	d.tr.do("core.assemble", "", func() {
		a := core.NewAssembler(spec)
		for _, o := range outcomes {
			if _, err = a.Add(o); err != nil {
				return
			}
		}
		st, err = a.Study()
	})
	if err != nil {
		return fmt.Errorf("assemble: %w", err)
	}
	dir, err := d.e.dir("core")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "study.json")
	d.tr.do("core.save", "", func() { err = st.Save(path) })
	if err != nil {
		return err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, u.bytes) {
		d.fail("core: a study assembled from its own cell outcomes saves different bytes")
	}
	var loaded *core.Study
	d.tr.do("core.load", "", func() { loaded, err = core.Load(path) })
	if err != nil {
		return err
	}
	d.tr.do("report.render", "", func() { report.Everything(io.Discard, loaded) })
	return nil
}
