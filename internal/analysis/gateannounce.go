package analysis

import (
	"go/ast"
	"go/types"
	"sort"
)

// GateAnnounce is the static half of the gate-announcement contract
// (DESIGN.md §10, "Gates are announced, not polled"). The SM caches each
// warp's CTAActive && WarpActive answer and recomputes it only after the
// policy calls SM.GatesChanged, so a policy method that writes state its
// gates read and never announces it leaves the schedulers issuing under
// stale gates — quietly wrong results, with no crash.
//
// For every type that declares CTAActive or WarpActive, the analyzer takes
// the receiver fields those methods read, transitively through
// same-receiver calls, minus the fields they write themselves: a gate
// method that writes is counting its own calls (a tracing wrapper), and
// its answer does not depend on that bookkeeping. Any other method of the
// type (Attach excepted: it runs before the first pick) whose write
// closure — the skipclosure summaries of summary.go — touches one of those
// fields must reach a call to a method named GatesChanged, directly or
// through same-package calls. The check is flow-insensitive: reaching the
// call anywhere in the method counts.
var GateAnnounce = &Analyzer{
	Name: "gateannounce",
	Doc:  "writes to state a policy's issue gates read that never reach SM.GatesChanged",
	Run:  runGateAnnounce,
}

// gateMethods are the SMPolicy methods whose answers the SM caches.
var gateMethods = []string{"CTAActive", "WarpActive"}

func runGateAnnounce(pass *Pass) {
	sums := packageSummaries(pass.Fset, pass.Pkg)
	info := pass.Pkg.Info

	// Direct observations per function: receiver fields read, and whether
	// the body calls a GatesChanged method itself.
	reads := map[*funcSummary]map[string]bool{}
	announces := map[*funcSummary]bool{}
	methods := map[string]map[string]*funcSummary{} // receiver type -> name -> summary
	for _, fs := range sums {
		reads[fs] = receiverFieldReads(fs.decl, info)
		announces[fs] = callsGatesChanged(fs.decl, info)
		if fs.recvType == "" {
			continue
		}
		if methods[fs.recvType] == nil {
			methods[fs.recvType] = map[string]*funcSummary{}
		}
		methods[fs.recvType][fs.obj.Name()] = fs
	}

	// Close both over same-package calls: reads only through calls on the
	// same receiver (the fields are the receiver's), announcements through
	// any call.
	for changed := true; changed; {
		changed = false
		for _, fs := range sums {
			for _, c := range fs.calls {
				cs := sums[c.callee]
				if cs == nil {
					continue
				}
				if announces[cs] && !announces[fs] {
					announces[fs] = true
					changed = true
				}
				if c.recvRoot.kind != rootRecv || cs.recvType != fs.recvType {
					continue
				}
				for f := range reads[cs] {
					if !reads[fs][f] {
						reads[fs][f] = true
						changed = true
					}
				}
			}
		}
	}

	var recvs []string
	for recv := range methods {
		recvs = append(recvs, recv)
	}
	sort.Strings(recvs)
	for _, recv := range recvs {
		ms := methods[recv]
		gateFields := map[string]string{} // field -> gate method reading it
		for _, g := range gateMethods {
			if fs := ms[g]; fs != nil {
				for f := range reads[fs] {
					if _, own := fs.closedFieldW[f]; own {
						continue
					}
					if _, ok := gateFields[f]; !ok {
						gateFields[f] = g
					}
				}
			}
		}
		if len(gateFields) == 0 {
			continue
		}
		var names []string
		for name := range ms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fs := ms[name]
			if name == "Attach" || name == "CTAActive" || name == "WarpActive" || announces[fs] {
				continue
			}
			if fs.closedRecvW {
				pass.Reportf(fs.decl.Name.Pos(),
					"%s.%s writes through the whole receiver, which the issue gates read, but never reaches GatesChanged: the SM keeps issuing under the old gates",
					recv, name)
				continue
			}
			var fields []string
			for f := range fs.closedFieldW {
				if _, ok := gateFields[f]; ok {
					fields = append(fields, f)
				}
			}
			sort.Strings(fields)
			for _, f := range fields {
				origin := fs.closedFieldW[f]
				via := ""
				if origin.via != "" {
					via = " (via " + origin.via + ")"
				}
				pass.Reportf(origin.pos,
					"%s.%s writes field %q%s, which %s reads, but never reaches GatesChanged: the SM keeps issuing under the old gates — call sm.GatesChanged() after the write (DESIGN.md §10)",
					recv, name, f, via, gateFields[f])
			}
		}
	}
}

// receiverFieldReads returns the first-hop receiver fields a method body
// selects, reads and writes alike (runGateAnnounce drops the written ones).
func receiverFieldReads(fd *ast.FuncDecl, info *types.Info) map[string]bool {
	out := map[string]bool{}
	if fd.Recv == nil || len(fd.Recv.List) != 1 || len(fd.Recv.List[0].Names) != 1 {
		return out
	}
	recv := info.Defs[fd.Recv.List[0].Names[0]]
	if recv == nil {
		return out
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && info.Uses[id] == recv {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				out[firstHopField(sel, info)] = true
			}
		}
		return true
	})
	return out
}

// callsGatesChanged reports whether the body calls a method named
// GatesChanged.
func callsGatesChanged(fd *ast.FuncDecl, info *types.Info) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "GatesChanged" {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
				found = true
			}
		}
		return !found
	})
	return found
}
