// Package seqwire checks the collector's wire-frame builders. The
// ship protocol relies on every frame carrying its sequence number
// (dedup/reorder after reconnect) and a CRC32 of the payload
// (corruption rejection). A frame builder is recognised structurally: a
// function that makes a local []byte, stores header fields into it with
// binary.*.PutUint*, and Writes that same buffer. For such functions the
// pass requires, before the first Write:
//
//   - a PutUint64 whose value involves a sequence counter (an
//     identifier containing "seq", or "rev" for control frames — policy
//     directive revisions play the sequence role on the downstream
//     channel), and
//   - a PutUint32 of a crc32 checksum; a computed checksum that never
//     reaches the buffer is also flagged.
package seqwire

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tempest/internal/analysis"
)

// targets are the wire-protocol packages.
var targets = []string{"internal/collect"}

// Analyzer implements the seqwire pass.
var Analyzer = &analysis.Analyzer{
	Name: "seqwire",
	Doc: "collector frame builders must store the sequence number and the payload checksum " +
		"into the frame before writing it",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !analysis.PathMatches(pass.Pkg.Path(), targets) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkBuilder(pass, fd)
		}
	}
	return nil
}

func checkBuilder(pass *analysis.Pass, fd *ast.FuncDecl) {
	// Buffers created locally with make([]byte, …).
	buffers := map[types.Object]bool{}
	// Identifiers assigned from crc32.* calls ("sum := crc32.ChecksumIEEE(p)").
	crcVars := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range as.Rhs {
			if i >= len(as.Lhs) {
				break
			}
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Defs[id]
			if obj == nil {
				obj = pass.TypesInfo.Uses[id]
			}
			if obj == nil {
				continue
			}
			if isMakeByteSlice(pass, rhs) {
				buffers[obj] = true
			}
			if callsCRC(pass, rhs) {
				crcVars[obj] = true
			}
		}
		return true
	})
	if len(buffers) == 0 {
		return
	}

	type put struct {
		pos   token.Pos
		bits  string // "PutUint32", "PutUint64", …
		value ast.Expr
	}
	var puts []put
	var firstWrite *ast.CallExpr
	var crcCallPos token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callsCRC(pass, call) && crcCallPos == token.NoPos {
			crcCallPos = call.Pos()
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch {
		case strings.HasPrefix(sel.Sel.Name, "PutUint") && len(call.Args) == 2:
			if bufferArg(pass, call.Args[0], buffers) {
				puts = append(puts, put{pos: call.Pos(), bits: sel.Sel.Name, value: call.Args[1]})
			}
		case sel.Sel.Name == "Write" && len(call.Args) == 1:
			if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && buffers[obj] && firstWrite == nil {
					firstWrite = call
				}
			}
		}
		return true
	})
	if firstWrite == nil || len(puts) == 0 {
		return // not a frame builder
	}

	hasSeq := false
	hasCRCPut := false
	for _, p := range puts {
		if p.pos >= firstWrite.Pos() {
			continue // header stored after the frame already left
		}
		if p.bits == "PutUint64" && mentionsSeq(p.value) {
			hasSeq = true
		}
		if callsCRC(pass, p.value) || mentionsObj(pass, p.value, crcVars) {
			hasCRCPut = true
		}
	}
	if !hasSeq {
		pass.Reportf(firstWrite.Pos(), "frame written without a sequence number: no binary PutUint64 of a seq counter into the frame buffer before Write")
	}
	if !hasCRCPut {
		if crcCallPos != token.NoPos && crcCallPos < firstWrite.Pos() {
			pass.Reportf(firstWrite.Pos(), "frame checksum is computed but never stored into the frame buffer before Write")
		} else {
			pass.Reportf(firstWrite.Pos(), "frame written without a checksum: no crc32 of the payload stored into the frame buffer before Write")
		}
	}
}

// isMakeByteSlice matches make([]byte, …).
func isMakeByteSlice(pass *analysis.Pass, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "make" || len(call.Args) == 0 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Args[0]]
	if !ok || tv.Type == nil {
		return false
	}
	slice, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := slice.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Uint8
}

// callsCRC reports whether e contains a call into hash/crc32.
func callsCRC(pass *analysis.Pass, e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if obj := pass.TypesInfo.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "hash/crc32" {
			found = true
			return false
		}
		return true
	})
	return found
}

// bufferArg reports whether e indexes or slices one of the tracked
// buffers (frame[0:8], frame[8:], or the bare identifier).
func bufferArg(pass *analysis.Pass, e ast.Expr, buffers map[types.Object]bool) bool {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.Uses[v]
			return obj != nil && buffers[obj]
		case *ast.SliceExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		default:
			return false
		}
	}
}

// mentionsSeq reports whether any identifier in e looks like a sequence
// counter. Control-frame revisions ("rev") count: on the downstream
// channel the directive revision is the sequence — it is what the
// shipper dedups and orders by.
func mentionsSeq(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			name := strings.ToLower(id.Name)
			if strings.Contains(name, "seq") || strings.Contains(name, "rev") {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// mentionsObj reports whether e uses one of the given objects.
func mentionsObj(pass *analysis.Pass, e ast.Expr, objs map[types.Object]bool) bool {
	if len(objs) == 0 {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Uses[id]; obj != nil && objs[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
