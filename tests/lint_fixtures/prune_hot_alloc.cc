// Negative fixture for csce_lint's hot-path-no-alloc over the prune
// layer: a failing-set union that grows the per-depth word array with
// std::vector::resize from inside the enumeration hot path, instead of
// writing into words sized during Prepare. Never compiled into the
// build — the lint self-test asserts the checker flags it.
#include <cstddef>
#include <cstdint>
#include <vector>

#define CSCE_HOT_PATH

namespace fixture {

struct FailingSetState {
  std::vector<uint64_t> words;
};

FailingSetState* DepthState(uint32_t depth);

CSCE_HOT_PATH void UnionFailingSet(const uint64_t* anc, size_t n_words,
                                   uint32_t depth) {
  FailingSetState* s = DepthState(depth);
  // No project class defines resize in this fixture's model, so the
  // member call is judged as the allocating std container method.
  s->words.resize(n_words);
  for (size_t w = 0; w < n_words; ++w) s->words[w] |= anc[w];
}

}  // namespace fixture
