#ifndef TKC_CLI_CLI_H_
#define TKC_CLI_CLI_H_

#include <iosfwd>
#include <string>
#include <vector>

namespace tkc {

/// Implementation of the `tkc` command-line tool. Lives in the library so
/// the test suite can drive it end to end; the binary in tools/ is a thin
/// argv adapter.
///
/// Subcommands:
///   decompose <edges.txt> [--relabel=none|degree]
///       per-edge "u v kappa co_clique_size" plus a summary line
///   kcore <edges.txt>
///       per-vertex "v core"
///   stats <edges.txt>
///       structural summary (degrees, triangles, clustering, degeneracy)
///   plot <edges.txt> [--svg=FILE] [--width=N] [--height=N]
///       terminal density plot; optional SVG artifact
///   hierarchy <edges.txt> [--max-nodes=N]
///       indented Triangle K-Core nesting outline
///   update <edges.txt> <events.txt>
///       events file: lines "+ u v" / "- u v"; applies them incrementally,
///       reports timings vs a from-scratch recompute and the new kappas
///   verify <edges.txt> [--events=FILE] [--check-every=N]
///          [--json-out=FILE]
///       runs every invariant oracle (structure, κ-certificate, nesting,
///       dynamic replay when --events is given);
///       exit 0 when all hold, 3 on a violated invariant (with a minimal
///       counterexample), 2 on usage/I-O errors; --json-out writes the
///       tkc.verify.v1 artifact
///   templates <old.txt> <new.txt> --pattern=newform|bridge|newjoin
///       template-pattern clique plateaus between two snapshots
///   generate <model> --out=FILE [--n=N] [--seed=S] [--p=P] [--m=M]
///       models: er, gnm, ba, plc, ws, rmat, geometric, collab
///
/// Returns the process exit code; output goes to `out`, diagnostics to
/// `err`.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

}  // namespace tkc

#endif  // TKC_CLI_CLI_H_
