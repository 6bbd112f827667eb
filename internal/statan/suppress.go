package statan

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"strings"
)

// Line-suppression grammar. A comment anywhere on a line of the form
//
//	//lint:<key> <reason>
//
// exempts that line from the rule owning <key>. The reason is
// mandatory: sevlint reports a reasonless suppression, and the hygiene
// check reports suppressions whose key no rule recognizes or that no
// finding consulted (stale — the code they exempted is gone).
//
// suppressionKeys maps each key to the rule it suppresses, for the
// hygiene check's error messages.
var suppressionKeys = map[string]string{
	"ordered":  "map-range",
	"clock":    "wall-clock",
	"rand":     "global-rand",
	"exit":     "os-exit",
	"signal":   "signal-notify",
	"http":     "http-server",
	"shutdown": "http-shutdown",
	"sleep":    "sleep-poll",
}

// Anchored at the start of the comment token: prose that merely
// mentions a suppression (like this file's own documentation) is not
// itself a suppression.
var suppressionRe = regexp.MustCompile(`^//\s?lint:([a-z-]+)\b(.*)$`)

// SuppEntry is one parsed //lint: suppression comment.
type SuppEntry struct {
	Key    string
	Reason string
	Pos    token.Position

	used           bool // some finding consulted and matched it
	reasonReported bool // missing-reason diagnostic already emitted
}

type lineKey struct {
	file string
	line int
}

type suppressions struct {
	byLine map[lineKey][]*SuppEntry
	all    []*SuppEntry // in scan order (file order, then position)
}

// scanSuppressions collects every //lint: comment in the files.
func scanSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{byLine: map[lineKey][]*SuppEntry{}}
	for _, file := range files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := suppressionRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				e := &SuppEntry{
					Key:    m[1],
					Reason: trimReason(m[2]),
					Pos:    pos,
				}
				k := lineKey{pos.Filename, pos.Line}
				s.byLine[k] = append(s.byLine[k], e)
				s.all = append(s.all, e)
			}
		}
	}
	return s
}

// trimReason strips the separators people naturally write between the
// key and the reason ("—", "-", ":") so all of "//lint:exit reason",
// "//lint:exit — reason", and "//lint:exit: reason" parse identically.
func trimReason(rest string) string {
	rest = strings.TrimSpace(rest)
	rest = strings.TrimLeft(rest, "—–-: ")
	return strings.TrimSpace(rest)
}

func (s *suppressions) lookup(file string, line int, key string) *SuppEntry {
	for _, e := range s.byLine[lineKey{file, line}] {
		if e.Key == key {
			return e
		}
	}
	return nil
}

// reportSuppressionHygiene flags suppression comments that are
// themselves defects: unknown keys (typos silently disable nothing)
// and entries no finding consulted (the exempted code is gone; the
// comment is stale and must be deleted, per the suppression audit).
func reportSuppressionHygiene(pkg *Package, out *[]Diagnostic) {
	for _, e := range pkg.sup.all {
		rule, known := suppressionKeys[e.Key]
		switch {
		case !known:
			*out = append(*out, Diagnostic{
				Pos: e.Pos, File: e.Pos.Filename, Line: e.Pos.Line, Col: e.Pos.Column,
				Pass: "suppress", Rule: "unknown-key",
				Msg: fmt.Sprintf("unknown suppression key %q; known keys: ordered, clock, rand, exit, signal, http, shutdown, sleep", e.Key),
			})
		case !e.used:
			*out = append(*out, Diagnostic{
				Pos: e.Pos, File: e.Pos.Filename, Line: e.Pos.Line, Col: e.Pos.Column,
				Pass: "suppress", Rule: "stale",
				Msg: fmt.Sprintf("stale suppression: no %s finding on this line; delete the //lint:%s comment", rule, e.Key),
			})
		}
	}
}
