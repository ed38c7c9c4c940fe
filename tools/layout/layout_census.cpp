// Layout census: walks the constexpr audit registry (core/layout_audit.h)
// and renders it as JSON — sizeof, alignof, budget, member offsets, padding
// holes, the bytes/peer roll-up, and the bytes a departed session keeps.
//
// Modes:
//   layout_census                     print the census JSON to stdout
//   layout_census --out=FILE          write the census JSON to FILE
//   layout_census --check=FILE        byte-compare against FILE; exit 1 and
//                                     report the first differing line on
//                                     drift (the `layout_census` ctest)
//   layout_census --bench=FILE        write a single-run bench JSON (macro:
//                                     the bytes/peer roll-up) in the shape
//                                     tools/bench_record.sh splices into
//                                     BENCH_sim_scale.json
//
// Every number here comes from sizeof/offsetof on the one Itanium C++ ABI
// all supported toolchains share, so the rendered bytes are identical
// under gcc and clang — which is exactly what the cross-compiler CI job
// asserts: if the census ever depended on a compiler quirk, one of the two
// --check runs would fail.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/layout_audit.h"

namespace {

using coolstream::core::layout::kRegistry;
using coolstream::core::layout::MemberInfo;
using coolstream::core::layout::TypeLayout;

void append_type(std::string& out, const TypeLayout& t, bool last) {
  char buf[256];
  out += "    {\n";
  std::snprintf(buf, sizeof buf, "      \"type\": \"%s\",\n", t.name);
  out += buf;
  std::snprintf(buf, sizeof buf,
                "      \"size\": %zu, \"align\": %zu, \"budget\": %zu, "
                "\"per_peer\": %zu,\n",
                t.size, t.align, t.budget, t.per_peer);
  out += buf;

  std::size_t padding = 0;
  if (t.members == nullptr) {
    out += "      \"members\": null,\n";
  } else {
    out += "      \"members\": [\n";
    std::size_t expected = 0;  // next hole-free offset
    for (std::size_t i = 0; i < t.member_count; ++i) {
      const MemberInfo& m = t.members[i];
      if (m.offset > expected) padding += m.offset - expected;
      expected = m.offset + m.size;
      std::snprintf(buf, sizeof buf,
                    "        {\"name\": \"%s\", \"offset\": %zu, "
                    "\"size\": %zu}%s\n",
                    m.name, m.offset, m.size,
                    i + 1 < t.member_count ? "," : "");
      out += buf;
    }
    if (t.size > expected) padding += t.size - expected;  // tail padding
    out += "      ],\n";
  }
  std::snprintf(buf, sizeof buf, "      \"padding_bytes\": %zu\n", padding);
  out += buf;
  out += last ? "    }\n" : "    },\n";
}

std::string render_census() {
  std::string out;
  out += "{\n";
  out += "  \"_comment\": \"generated by tools/layout/layout_census; "
         "regenerate with: build/tools/layout_census "
         "--out=tools/layout/layout_census.json\",\n";
  out += "  \"types\": [\n";
  constexpr std::size_t n = coolstream::core::layout::kRegistrySize;
  for (std::size_t i = 0; i < n; ++i) {
    append_type(out, kRegistry[i], i + 1 == n);
  }
  out += "  ],\n";
  out += "  \"bytes_per_peer\": {\n";
  char buf[256];
  bool first = true;
  for (const TypeLayout& t : kRegistry) {
    if (t.per_peer == 0) continue;
    if (!first) out += ",\n";
    first = false;
    std::snprintf(buf, sizeof buf,
                  "    \"%s\": {\"count\": %zu, \"bytes\": %zu}", t.name,
                  t.per_peer, t.size * t.per_peer);
    out += buf;
  }
  out += ",\n";
  std::snprintf(buf, sizeof buf, "    \"total\": %zu\n",
                coolstream::core::layout::bytes_per_peer());
  out += buf;
  out += "  },\n";
  // A departed session keeps only its DepartedPeer record (System::leave).
  using Departed = coolstream::core::layout::AuditTraits<
      coolstream::core::DepartedPeer>;
  std::snprintf(buf, sizeof buf,
                "  \"bytes_per_departed_session\": {\"%s\": %zu}\n",
                Departed::name, Departed::size);
  out += buf;
  out += "}\n";
  return out;
}

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
      "\"audited_types\": %zu},\n"
      "  \"micro\": []\n"
      "}\n",
      coolstream::core::layout::bytes_per_peer(),
      sizeof(coolstream::core::PeerProtocolState),
      coolstream::core::layout::kPartnerSlots,
      coolstream::core::layout::kMcacheSlots,
      coolstream::core::layout::kRegistrySize);
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

int check_against(const char* path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    std::fprintf(stderr, "layout_census: cannot read %s\n", path);
    return 2;
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  const std::string want = render_census();
  const std::string got = ss.str();
  if (got == want) return 0;

  // Report the first differing line so the drift is reviewable.
  std::istringstream a(got), b(want);
  std::string la, lb;
  int line = 0;
  while (true) {
    ++line;
    const bool ha = static_cast<bool>(std::getline(a, la));
    const bool hb = static_cast<bool>(std::getline(b, lb));
    if (!ha && !hb) break;
    if (la != lb || ha != hb) {
      std::fprintf(stderr,
                   "layout_census: %s is stale at line %d\n"
                   "  checked-in: %s\n"
                   "  computed:   %s\n",
                   path, line, ha ? la.c_str() : "<eof>",
                   hb ? lb.c_str() : "<eof>");
      break;
    }
  }
  std::fprintf(stderr,
               "layout_census: layout drifted; regenerate with "
               "--out=%s and justify the new layout in review\n",
               path);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--check=", 8) == 0) return check_against(arg + 8);
    if (std::strncmp(arg, "--out=", 6) == 0) {
      return write_file(arg + 6, render_census()) ? 0 : 2;
    }
    if (std::strncmp(arg, "--bench=", 8) == 0) {
      return write_file(arg + 8, render_bench()) ? 0 : 2;
    }
    std::fprintf(stderr,
                 "usage: layout_census [--out=FILE | --check=FILE | "
                 "--bench=FILE]\n");
    return 2;
  }
  std::fputs(render_census().c_str(), stdout);
  return 0;
}
