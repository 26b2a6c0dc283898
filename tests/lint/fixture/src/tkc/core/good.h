#ifndef TKC_CORE_GOOD_H_
#define TKC_CORE_GOOD_H_
// Clean fixture header: a builder-only Graph function, a CsrGraph-only
// analysis, and one declaration that takes both (a mirror audit) are not
// substrate twins.

namespace tkc {

class Graph;
class CsrGraph;

int Build(const Graph& g);
int Measure(const CsrGraph& g);
bool Mirror(const Graph& g, const CsrGraph& csr);
bool Mirror(const CsrGraph& csr);

}  // namespace tkc

#endif  // TKC_CORE_GOOD_H_
