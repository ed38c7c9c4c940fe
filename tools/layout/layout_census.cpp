// Layout census: renders the bytes/peer roll-up of the constexpr audit
// registry (core/layout_audit.h) as a single-run bench JSON.
//
// Usage:
//   layout_census --bench=FILE        write the bench JSON (macro: the
//                                     bytes/peer roll-up and the bytes a
//                                     departed session keeps) in the shape
//                                     tools/bench_record.sh splices into
//                                     BENCH_sim_scale.json
//
// The layout itself is proved at compile time by the header's
// static_asserts; this tool only reports the numbers.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "core/layout_audit.h"

namespace {

// Single-run bench JSON in the fixed shape tools/bench_record.sh parses
// (one "macro" line, a "micro" array).
std::string render_bench() {
  char buf[512];
  std::snprintf(
      buf, sizeof buf,
      "{\n"
      "  \"bench\": \"sim_scale\",\n"
      "  \"macro\": {\"bytes_per_peer\": %zu, \"hot_state_bytes\": %zu, "
      "\"partner_slots\": %zu, \"mcache_slots\": %zu, "
      "\"audited_types\": %zu, \"bytes_per_departed_session\": %zu},\n"
      "  \"micro\": []\n"
      "}\n",
      coolstream::core::layout::bytes_per_peer(),
      sizeof(coolstream::core::PeerProtocolState),
      coolstream::core::layout::kPartnerSlots,
      coolstream::core::layout::kMcacheSlots,
      coolstream::core::layout::kRegistrySize,
      coolstream::core::layout::bytes_per_departed_session());
  return std::string(buf);
}

bool write_file(const char* path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "layout_census: cannot write %s\n", path);
    return false;
  }
  f << text;
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strncmp(argv[1], "--bench=", 8) == 0) {
    return write_file(argv[1] + 8, render_bench()) ? 0 : 2;
  }
  std::fprintf(stderr, "usage: layout_census --bench=FILE\n");
  return 2;
}
