package analysis

import (
	"go/ast"
	"strings"
)

// sendHints names the packages whose every channel send must be abort-
// guarded, with the idiom each package's diagnostic recommends. In
// internal/dist a bare send can block forever once a peer is evicted
// mid-collective, wedging every survivor of the very failure the elastic
// layer exists to absorb; in internal/pipeline the stage DAG's worker pools
// hand runs across bounded queues that Iterator.Close can tear down; in
// internal/dataserve the workers hand outcomes to consumers that can vanish
// mid-send (tenant detach, iterator close, service shutdown); and in
// internal/train the elastic step runs one goroutine per rank, none of
// which may block once the group evicts a peer.
var sendHints = map[string]string{
	"scipp/internal/dist":      "use select { case ch <- v: case <-abort: }",
	"scipp/internal/pipeline":  "use sendItem or select { case ch <- v: case <-abort: }",
	"scipp/internal/dataserve": "use select { case ch <- v: case <-abort: } or a default case",
	"scipp/internal/train":     "use select { case ch <- v: case <-abort: }",
}

// GuardedSend enforces one abort discipline across the concurrent
// packages: every channel send must sit in a select that also has an escape
// case — a receive (an abort or deadline channel) or a default. It covers
// every send in the packages sendHints lists, in loops or not, so none of
// them can block past an abort. Test files are exempt (the loader skips
// them).
var GuardedSend = &Analyzer{
	Name: "guardedsend",
	Doc:  "flag channel sends in internal/dist, internal/pipeline, internal/dataserve and internal/train not guarded by a select with an abort case",
	Run: func(pass *Pass) {
		if hint, ok := sendHints[pass.Path]; ok {
			reportUnguardedSends(pass, "channel send in "+strings.TrimPrefix(pass.Path, "scipp/")+" without an abort escape: "+hint)
		}
	},
}

// reportUnguardedSends flags every channel send in the pass's files that is
// not the comm of a select clause whose select also offers an escape (a
// receive case or a default).
func reportUnguardedSends(pass *Pass, msg string) {
	for _, f := range pass.Files {
		// First pass: mark the sends that are the comm of a select clause
		// whose select also offers an escape (receive case or default).
		guarded := make(map[*ast.SendStmt]bool)
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok {
				return true
			}
			var sends []*ast.SendStmt
			escape := false
			for _, c := range sel.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				switch comm := cc.Comm.(type) {
				case nil: // default: the send cannot block
					escape = true
				case *ast.SendStmt:
					sends = append(sends, comm)
				default: // a receive clause: the abort/deadline escape
					escape = true
				}
			}
			if escape {
				for _, s := range sends {
					guarded[s] = true
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			send, ok := n.(*ast.SendStmt)
			if !ok {
				return true
			}
			if !guarded[send] {
				pass.Reportf(Error, send.Pos(), "%s", msg)
			}
			return true
		})
	}
}
