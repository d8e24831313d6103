package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// wirePackages are the layers whose messages scale with tasks, blocks
// and spills: everything they put on the wire must use a compiled codec.
var wirePackages = map[string]bool{
	"eclipsemr/internal/mapreduce": true,
	"eclipsemr/internal/dhtfs":     true,
}

// isWirePackage matches the data-path packages by import path, and by
// package name as a fallback so the analyzer's own testdata is covered.
func isWirePackage(p *Package) bool {
	return wirePackages[p.Path] || p.Types.Name() == "mapreduce" || p.Types.Name() == "dhtfs"
}

// wireCodecArg maps each transport codec entry point to the index of the
// argument that carries the message (or the frame header).
var wireCodecArg = map[string]int{
	"Encode":      0,
	"Decode":      1,
	"EncodeFrame": 0,
	"DecodeFrame": 1,
}

// WireMsg keeps the per-task and per-block messages off gob. The
// transport codec entry points take `any` and fall back to gob for a
// value without the compiled codec — right for the cold control plane,
// and a silent 50-µs-per-message regression on the data path, where a
// new message type would otherwise work, pass every test and only show
// up in a profile. Inside internal/mapreduce and internal/dhtfs the value
// handed to transport.Encode, Decode, EncodeFrame (the header) or
// DecodeFrame must therefore statically implement transport.Wire — as
// itself or through its pointer, which is what Encode accepts. The
// durable files that share those entry points (journal, reuse marker)
// want gob's self-describing format and carry a reasoned //lint:ignore.
func WireMsg() *Analyzer {
	return &Analyzer{
		Name: "wiremsg",
		Doc:  "data-path messages given to the transport codec implement transport.Wire",
		Run:  runWireMsg,
	}
}

func runWireMsg(u *Unit) []Finding {
	var findings []Finding
	for _, p := range u.Pkgs {
		if !isWirePackage(p) {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeFunc(p.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != transportPath {
					return true
				}
				idx, ok := wireCodecArg[fn.Name()]
				if !ok || fn.Type().(*types.Signature).Recv() != nil || len(call.Args) <= idx {
					return true
				}
				wire, ok := fn.Pkg().Scope().Lookup("Wire").(*types.TypeName)
				if !ok {
					return true
				}
				iface, ok := wire.Type().Underlying().(*types.Interface)
				if !ok {
					return true
				}
				arg := call.Args[idx]
				t := p.Info.TypeOf(arg)
				if t == nil || types.Implements(t, iface) {
					return true
				}
				if !types.IsInterface(t) && types.Implements(types.NewPointer(t), iface) {
					return true
				}
				findings = append(findings, Finding{
					Pos:      u.Fset.Position(arg.Pos()),
					Analyzer: "wiremsg",
					Message: fmt.Sprintf("%s passed to transport.%s does not statically implement transport.Wire, so it would cross the wire as gob; "+
						"give the message AppendWire/ParseWire and pass it by its own type",
						types.TypeString(t, types.RelativeTo(p.Types)), fn.Name()),
				})
				return true
			})
		}
	}
	return findings
}
