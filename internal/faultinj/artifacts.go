package faultinj

// Prep artifacts: everything an Experiment derives from the golden
// simulation, in a form the prep-artifact cache (internal/artcache)
// can serialize. A warm cache hit rebuilds the Experiment from bytes
// via NewExperimentFromArtifacts instead of re-running the golden
// simulation that records them — the dominant cost of preparing a
// (machine, binary) unit.

import (
	"fmt"

	"sevsim/internal/binio"
	"sevsim/internal/checkpoint"
	"sevsim/internal/cpu"
	"sevsim/internal/machine"
)

// Artifacts is the golden-run output of one prepared experiment: the
// full fault-free result, the commit trace (nil unless the
// experiment was traced), and the golden checkpoint stream (nil when
// checkpointing was disabled or the run was too short to checkpoint).
type Artifacts struct {
	Golden machine.Result
	Trace  *cpu.CommitTrace
	Stream *checkpoint.Stream
}

// Artifacts returns the experiment's golden-run products. The stream
// is shared with the experiment, not copied: the caller must finish
// with the artifacts (typically by encoding them) before Close
// releases the checkpoints.
func (e *Experiment) Artifacts() Artifacts {
	return Artifacts{Golden: e.GoldenStats, Trace: e.Trace, Stream: e.ckpts}
}

// NewExperimentFromArtifacts rebuilds a prepared experiment from
// previously captured artifacts, skipping the golden run. The
// experiment takes ownership of art.Stream (Close releases it), so a
// decoded stream must not be shared across experiments. opts matters
// only for NoFastExit; tracing and checkpointing already happened when
// the artifacts were captured.
func NewExperimentFromArtifacts(cfg machine.Config, prog *machine.Program, art Artifacts, opts Options) (*Experiment, error) {
	if art.Golden.Outcome != machine.OutcomeOK {
		return nil, &GoldenError{Result: art.Golden}
	}
	out := make([]uint64, len(art.Golden.Output))
	copy(out, art.Golden.Output)
	e := &Experiment{
		Config:       cfg,
		Program:      prog,
		GoldenCycles: art.Golden.Cycles,
		GoldenOutput: out,
		GoldenStats:  art.Golden,
		Trace:        art.Trace,
	}
	if art.Stream != nil && art.Stream.Len() > 0 {
		e.ckpts = art.Stream
		e.fastExit = !opts.NoFastExit
	}
	return e, nil
}

// EncodeTo appends the artifacts to w.
func (a *Artifacts) EncodeTo(w *binio.Writer) {
	a.Golden.EncodeTo(w)
	cpu.EncodeCommitEvents(w, a.Trace)
	hasStream := a.Stream != nil && a.Stream.Len() > 0
	w.Bool(hasStream)
	if hasStream {
		a.Stream.EncodeTo(w)
	}
}

// DecodeArtifacts reads artifacts written by EncodeTo, validating the
// checkpoint stream against cfg. The caller owns the decoded stream
// until it hands the artifacts to NewExperimentFromArtifacts.
func DecodeArtifacts(r *binio.Reader, cfg machine.Config) (Artifacts, error) {
	var a Artifacts
	var err error
	if a.Golden, err = machine.DecodeResult(r); err != nil {
		return Artifacts{}, fmt.Errorf("faultinj: decode artifacts golden: %w", err)
	}
	a.Trace = cpu.DecodeCommitEvents(r)
	hasStream := r.Bool()
	if err := r.Err(); err != nil {
		return Artifacts{}, fmt.Errorf("faultinj: decode artifacts trace: %w", err)
	}
	if hasStream {
		if a.Stream, err = checkpoint.DecodeStream(r, cfg); err != nil {
			return Artifacts{}, fmt.Errorf("faultinj: decode artifacts stream: %w", err)
		}
	}
	return a, nil
}
