// Container-hazard fixtures: pointer-keyed associative containers and
// iteration over unordered containers in protocol-scoped code (this file
// lives under a core/ directory, so the unordered-iter rule applies).
//
// This file is lint-test data only — it is never compiled.
#include <map>
#include <set>
#include <unordered_map>

struct Peer;

std::map<Peer*, int> g_owners;  // lint:expect(ptr-key)
std::set<const char*> g_names;                        // lint:expect(ptr-key)

void iterate_table() {
  std::unordered_map<int, int> table;
  table[1] = 2;
  for (const auto& [k, v] : table) {                  // lint:expect(unordered-iter)
    (void)k;
    (void)v;
  }
  auto it = table.begin();                            // lint:expect(unordered-iter)
  (void)it;
  // A pure lookup compares against end() without traversing: clean.
  bool found = table.find(1) != table.end();
  (void)found;
}
