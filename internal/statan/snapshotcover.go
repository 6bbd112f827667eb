package statan

import (
	"fmt"
	"strings"
)

// AnnSnapshotSkip marks a struct field deliberately outside the
// Snapshot/Restore relation: configuration fixed at construction,
// wiring to structures snapshotted elsewhere, scratch buffers dead
// across cycles, or observer hooks. The reason is mandatory.
const AnnSnapshotSkip = "snapshot:skip"

// AnnSnapshotFlat marks a struct field as a view over a flat backing
// slab that Snapshot/Restore copy wholesale (the struct-of-arrays
// layout in cpu's soa): the field aliases a sub-range of the named
// backing field, so copying the backing carries the view. The
// annotation argument names the backing field; the view counts as
// covered exactly when the backing is covered by both Snapshot and
// Restore, and naming a nonexistent backing field is itself an error.
const AnnSnapshotFlat = "snapshot:flat"

// flatBacking extracts the backing field name from a //snapshot:flat
// annotation: the first word of the argument, so views can carry
// trailing commentary ("//snapshot:flat u64  int64 immediate ...").
func flatBacking(ann *annotation) string {
	if ann == nil {
		return ""
	}
	fields := strings.Fields(ann.Reason)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}

// snapshotCoverPass enforces checkpoint completeness, the invariant
// behind the byte-identical resume guarantee (DESIGN.md §9/§10): for
// every struct with a Snapshot/Restore method pair (cpu.Core,
// mem.Cache, mem.Memory, machine.Machine), every field — including
// fields promoted from embedded same-package structs — is either
// referenced by BOTH Snapshot and Restore (i.e. actually carried
// through a checkpoint round-trip), a "//snapshot:flat <backing>" view
// whose backing slab is carried by both, or carries an explicit
// "//snapshot:skip <reason>" annotation. An annotation is stale when
// Snapshot reads the field and Restore assigns it — unless Snapshot
// assigns it too: capturing state does not change it, so a field both
// methods write is bookkeeping about the relation between the live
// structure and its snapshots (a copy-on-write base, a touched list),
// exactly what the annotation says. Adding a struct field without
// extending the snapshot layer used to silently break checkpoint
// fast-forward, kill-and-resume, and the equality fast path at once;
// now it is a lint error at the field's declaration.
func snapshotCoverPass() *Pass {
	return &Pass{
		Name: "snapshotcover",
		Doc:  "every field of a struct with Snapshot/Restore is copied by both (directly or via its //snapshot:flat backing slab), or annotated //snapshot:skip <reason>",
		Run: func(pkg *Package, r *Reporter) {
			sds := packageStructs(pkg)
			byName := structsByName(sds)
			for _, sd := range sds {
				if sd.Methods["Snapshot"] == nil || sd.Methods["Restore"] == nil {
					continue
				}
				snap, snapWrites := sd.methodFieldUse("Snapshot")
				rest, restWrites := sd.methodFieldUse("Restore")
				fields := expandFields(sd, byName)
				declared := map[string]bool{}
				for _, field := range fields {
					for _, name := range fieldNames(field) {
						declared[name.Name] = true
					}
				}
				for _, field := range fields {
					ann := fieldAnnotation(pkg.Fset, field, AnnSnapshotSkip)
					flat := fieldAnnotation(pkg.Fset, field, AnnSnapshotFlat)
					if ann != nil && ann.Reason == "" {
						r.Report(field.Pos(), "annotation-reason",
							fmt.Sprintf("//%s annotation needs a reason (//%s <why this field needs no checkpointing>)", AnnSnapshotSkip, AnnSnapshotSkip))
					}
					backing := flatBacking(flat)
					if flat != nil {
						switch {
						case backing == "":
							r.Report(field.Pos(), "annotation-reason",
								fmt.Sprintf("//%s annotation must name its backing field (//%s <backing slab>)", AnnSnapshotFlat, AnnSnapshotFlat))
						case !declared[backing]:
							r.Report(field.Pos(), "stale-annotation", fmt.Sprintf(
								"//%s names backing field %q which %s does not declare; the view covers nothing",
								AnnSnapshotFlat, backing, sd.Name))
						}
					}
					for _, name := range fieldNames(field) {
						covered := snap[name.Name] && rest[name.Name]
						if flat != nil && declared[backing] {
							// A flat view rides its backing slab through the
							// checkpoint; it is covered iff the backing is.
							backed := snap[backing] && rest[backing]
							if !backed {
								r.Report(name.Pos(), "missing-field", fmt.Sprintf(
									"field %s.%s is a //%s view over %s, which is not %s; a checkpoint would silently drop it",
									sd.Name, name.Name, AnnSnapshotFlat, backing,
									missingHalf(snap[backing], rest[backing])))
							}
							continue
						}
						switch {
						case ann == nil && flat == nil && !covered:
							r.Report(name.Pos(), "missing-field", fmt.Sprintf(
								"field %s.%s is not %s; a checkpoint would silently drop it — copy it in both, or annotate //%s <reason>",
								sd.Name, name.Name, missingHalf(snap[name.Name], rest[name.Name]), AnnSnapshotSkip))
						case ann != nil && covered && restWrites[name.Name] && !snapWrites[name.Name]:
							r.Report(name.Pos(), "stale-annotation", fmt.Sprintf(
								"field %s.%s is annotated //%s but Snapshot and Restore both copy it; delete the annotation",
								sd.Name, name.Name, AnnSnapshotSkip))
						}
					}
				}
			}
		},
	}
}

func missingHalf(inSnap, inRest bool) string {
	switch {
	case !inSnap && !inRest:
		return "read by Snapshot or written by Restore"
	case !inSnap:
		return "read by Snapshot"
	default:
		return "written by Restore"
	}
}
