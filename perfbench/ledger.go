package main

import "strings"

// repoPrefix marks a frame of the simulator's own code.
const repoPrefix = "outlierlb/internal/"

// layers are the repository packages the ledger names; a sample whose
// innermost repo frame is in any other package is charged to "other".
// Subpackages (workload/tpcw, workload/rubis) belong to their parent.
var layers = []string{
	"mrc", "core", "bufferpool", "trace", "engine", "metrics", "cluster",
	"workload", "storage", "server", "lockmgr", "ctrlnet", "simcore", "sim",
}

// entries are the public entry functions whose inclusive time the ledger
// reports: a sample counts toward an entry when that function is anywhere
// on its stack.
var entries = []struct{ metric, fn string }{
	{"mrc.compute_s", repoPrefix + "mrc.Compute"},
	{"core.tick_s", repoPrefix + "core.(*Controller).Tick"},
	{"bufferpool.access_s", repoPrefix + "bufferpool.(*Pool).Access"},
	{"bufferpool.write_s", repoPrefix + "bufferpool.(*Pool).Write"},
	{"trace.zipf_s", repoPrefix + "trace.(*ZipfSet).Next"},
	{"engine.execute_s", repoPrefix + "engine.(*Engine).Execute"},
	{"cluster.submit_s", repoPrefix + "cluster.(*Scheduler).Submit"},
	{"ctrlnet.send_s", repoPrefix + "ctrlnet.(*Network).Send"},
}

// ledger is CPU time split by layer. self holds each layer's self time
// (plus "other"); entry holds inclusive time per entries metric.
type ledger struct {
	total        float64
	self         map[string]float64
	entry        map[string]float64
	gc           float64
	unattributed float64
}

// layerOf maps a function name to its ledger layer, or "" for a frame
// outside the repository.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	pkg := fn[len(repoPrefix):]
	if k := strings.IndexAny(pkg, "(["); k >= 0 {
		pkg = pkg[:k] // receivers and type arguments may hold '/' or '.'
	}
	// The package path ends at the first '.' after the last '/'.
	if i := strings.LastIndexByte(pkg, '/'); i >= 0 {
		if j := strings.IndexByte(pkg[i:], '.'); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.IndexByte(pkg, '.'); j >= 0 {
		pkg = pkg[:j]
	}
	top, _, _ := strings.Cut(pkg, "/")
	for _, l := range layers {
		if l == top {
			return l
		}
	}
	return "other"
}

// isGC reports whether a frame belongs to the garbage collector's own
// work: background marking, sweeping and scavenging, and assists.
func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
		strings.HasPrefix(fn, "runtime.bgscavenge") || strings.HasPrefix(fn, "runtime.markroot")
}

// attribute builds the ledger. Each sample's self time goes to the layer
// of its innermost repo frame, so time in maps, container/list, math or
// the allocator is charged to the repo package that called it. A sample
// with no repo frame is garbage collection or unattributed. Entry time
// counts each sample at most once per entry, however often the entry
// function recurs on the stack.
func attribute(samples []sample) ledger {
	l := ledger{self: map[string]float64{}, entry: map[string]float64{}}
	for _, s := range samples {
		l.total += s.seconds
		owner, gc := "", false
		for _, fn := range s.stack {
			if owner == "" {
				owner = layerOf(fn)
			}
			gc = gc || isGC(fn)
		}
		switch {
		case owner != "":
			l.self[owner] += s.seconds
		case gc:
			l.gc += s.seconds
		default:
			l.unattributed += s.seconds
		}
		for _, e := range entries {
			for _, fn := range s.stack {
				if fn == e.fn {
					l.entry[e.metric] += s.seconds
					break
				}
			}
		}
	}
	return l
}

// attributedFrac is the share of sampled time charged to a repo package
// or to the garbage collector.
func (l ledger) attributedFrac() float64 {
	if l.total == 0 {
		return 0
	}
	return 1 - l.unattributed/l.total
}
