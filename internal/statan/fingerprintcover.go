package statan

import "fmt"

// AnnJournalEphemeral marks a spec field deliberately excluded from
// the journal's meta-record fingerprint: an execution-shape knob
// (parallelism, checkpoint budget, fast-exit toggle, failure policy)
// that provably cannot change any classification, so a journaled study
// may be resumed under a different value. The mandatory reason records
// why resuming under a different value is safe.
const AnnJournalEphemeral = "journal:ephemeral"

// fingerprintCoverPass enforces fingerprint completeness for every
// struct with a method named "fingerprint" (core.Spec): each field
// either feeds the fingerprint — referenced by fingerprint or by a
// sibling method it calls on its receiver, like resolveSizes — or is
// annotated "//journal:ephemeral <reason>". Without this, adding a
// classification-affecting Spec knob and forgetting to fingerprint it
// would let a stale journal replay results recorded under different
// semantics; with it, the omission is a lint error, and every
// deliberately unfingerprinted execution knob is explicit and
// machine-checked.
func fingerprintCoverPass() *Pass {
	return &Pass{
		Name: "fingerprintcover",
		Doc:  "every field of a struct with a fingerprint method feeds the fingerprint or is annotated //journal:ephemeral <reason>",
		Run: func(pkg *Package, r *Reporter) {
			for _, sd := range packageStructs(pkg) {
				if sd.Methods["fingerprint"] == nil {
					continue
				}
				refs := sd.methodFieldRefs("fingerprint")
				for _, field := range sd.Struct.Fields.List {
					ann := fieldAnnotation(pkg.Fset, field, AnnJournalEphemeral)
					if ann != nil && ann.Reason == "" {
						r.Report(field.Pos(), "annotation-reason",
							fmt.Sprintf("//%s annotation needs a reason (//%s <why a resume may change this knob>)", AnnJournalEphemeral, AnnJournalEphemeral))
					}
					for _, name := range fieldNames(field) {
						switch {
						case ann == nil && !refs[name.Name]:
							r.Report(name.Pos(), "missing-field", fmt.Sprintf(
								"field %s.%s does not feed the journal fingerprint; a stale journal could replay results recorded under a different %s — fingerprint it, or annotate //%s <reason>",
								sd.Name, name.Name, name.Name, AnnJournalEphemeral))
						case ann != nil && refs[name.Name]:
							r.Report(name.Pos(), "stale-annotation", fmt.Sprintf(
								"field %s.%s is annotated //%s but feeds the fingerprint; delete the annotation",
								sd.Name, name.Name, AnnJournalEphemeral))
						}
					}
				}
			}
		},
	}
}
