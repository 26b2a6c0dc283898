#ifndef TKC_CORE_BAD_TWIN_H_
#define TKC_CORE_BAD_TWIN_H_
// TKC-L070: Analyze has a const Graph& twin of its const CsrGraph& form.

namespace tkc {

class Graph;
class CsrGraph;

int Analyze(const CsrGraph& g);
int Analyze(const Graph& g);

}  // namespace tkc

#endif  // TKC_CORE_BAD_TWIN_H_
