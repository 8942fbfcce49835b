// Seeded fault-campaign driver: sweeps scenario packs x seeds x protocols x
// partition counts, evaluates each pack's acceptance gates, and prints a one-line
// verdict per run plus a copy-pasteable rerun command for every failure.
//
//   fault_campaign --list
//   fault_campaign --pack kill_one_replica --seed 7 --protocol atlas --partitions 4
//   fault_campaign --pack all --seeds 5 --protocol all
//   fault_campaign --smoke        # CI preset: 2 seeds x all packs x atlas, P=1
//   fault_campaign --smoke --protocol all  # the preset with any flag overridden
//   fault_campaign --smoke --protocol all --partitions 4 --batch-window-ms 2
//
// Exit status is nonzero iff any run failed a gate.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "src/fault/campaign.h"
#include "src/fault/scenario.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: fault_campaign [--pack NAME|all] [--seed S] [--seeds N]\n"
      "                      [--protocol atlas|epaxos|mencius|all] [--partitions P]\n"
      "                      [--batch-window-ms W] [--data-dir DIR] [--smoke]\n"
      "                      [--list]\n"
      "  --seed S       first seed (default 1)\n"
      "  --seeds N      sweep N consecutive seeds starting at --seed (default 1)\n"
      "  --batch-window-ms W  submission batching window in ms (default 0: off;\n"
      "                 only sharded replicas, --partitions > 1, batch)\n"
      "  --data-dir DIR persist commit logs + snapshots per tuple under DIR;\n"
      "                 scheduled restarts recover from disk (see src/dur)\n"
      "  --smoke        CI preset: all packs, 2 seeds, atlas, P=1; other flags\n"
      "                 override it in any order\n"
      "  --list         print the scenario packs and exit\n");
}

struct Args {
  std::string pack = "all";
  uint64_t seed = 1;
  std::optional<uint64_t> seeds;  // unset: 1, or 2 under --smoke
  std::string protocol = "atlas";
  uint32_t partitions = 1;
  uint64_t batch_window_ms = 0;
  std::string data_dir;
  // The CI preset differs from the defaults only in its seed count, and fills in
  // only what the command line left unset, so flag order does not matter.
  bool smoke = false;
  bool list = false;
};

bool Parse(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--pack") {
      const char* v = next("--pack");
      if (v == nullptr) return false;
      args.pack = v;
    } else if (a == "--seed") {
      const char* v = next("--seed");
      if (v == nullptr) return false;
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seeds") {
      const char* v = next("--seeds");
      if (v == nullptr) return false;
      args.seeds = std::strtoull(v, nullptr, 10);
    } else if (a == "--protocol") {
      const char* v = next("--protocol");
      if (v == nullptr) return false;
      args.protocol = v;
    } else if (a == "--partitions") {
      const char* v = next("--partitions");
      if (v == nullptr) return false;
      args.partitions = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (a == "--batch-window-ms") {
      const char* v = next("--batch-window-ms");
      if (v == nullptr) return false;
      args.batch_window_ms = std::strtoull(v, nullptr, 10);
    } else if (a == "--data-dir") {
      const char* v = next("--data-dir");
      if (v == nullptr) return false;
      args.data_dir = v;
    } else if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--list") {
      args.list = true;
    } else if (a == "--help" || a == "-h") {
      PrintUsage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      PrintUsage();
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, args)) {
    return 2;
  }
  const uint64_t seeds = args.seeds.value_or(args.smoke ? 2 : 1);

  if (args.list) {
    for (const fault::Scenario& s : fault::AllScenarios()) {
      std::printf("%-28s %s\n", s.name.c_str(), s.description.c_str());
    }
    return 0;
  }

  std::vector<std::string> packs;
  if (args.pack == "all") {
    for (const fault::Scenario& s : fault::AllScenarios()) {
      packs.push_back(s.name);
    }
  } else {
    if (fault::FindScenario(args.pack) == nullptr) {
      std::fprintf(stderr, "unknown pack: %s (try --list)\n", args.pack.c_str());
      return 2;
    }
    packs.push_back(args.pack);
  }

  std::vector<harness::Protocol> protocols;
  if (args.protocol == "all") {
    protocols = {harness::Protocol::kAtlas, harness::Protocol::kEPaxos,
                 harness::Protocol::kMencius};
  } else {
    auto p = fault::ParseProtocol(args.protocol);
    if (!p.has_value()) {
      std::fprintf(stderr, "unknown protocol: %s\n", args.protocol.c_str());
      return 2;
    }
    protocols.push_back(*p);
  }

  int failures = 0;
  int runs = 0;
  std::vector<std::string> reruns;
  for (const std::string& pack : packs) {
    for (harness::Protocol protocol : protocols) {
      for (uint64_t s = 0; s < seeds; s++) {
        fault::RunSpec spec;
        spec.pack = pack;
        spec.seed = args.seed + s;
        spec.protocol = protocol;
        spec.partitions = args.partitions;
        spec.batch_window = args.batch_window_ms * common::kMillisecond;
        spec.data_dir = args.data_dir;
        fault::RunResult r = fault::RunScenario(spec);
        runs++;
        std::printf(
            "%s pack=%s protocol=%s partitions=%u seed=%llu completed=%llu "
            "gave_up=%llu injected=%llu/%llu sched=%016llx store=%016llx\n",
            r.pass ? "PASS" : "FAIL", pack.c_str(),
            fault::ProtocolFlagName(protocol), spec.partitions,
            static_cast<unsigned long long>(spec.seed),
            static_cast<unsigned long long>(r.completed),
            static_cast<unsigned long long>(r.gave_up),
            static_cast<unsigned long long>(r.drops.injected + r.drops.corrupted),
            static_cast<unsigned long long>(r.inject.sends_seen),
            static_cast<unsigned long long>(r.schedule_digest),
            static_cast<unsigned long long>(r.store_digest));
        if (!r.pass) {
          failures++;
          for (const std::string& f : r.failures) {
            std::printf("     gate: %s\n", f.c_str());
          }
          reruns.push_back(fault::RerunCommand(spec));
        }
      }
    }
  }

  std::printf("%d/%d runs passed\n", runs - failures, runs);
  if (!reruns.empty()) {
    std::printf("rerun failing seeds with:\n");
    for (const std::string& cmd : reruns) {
      std::printf("  %s\n", cmd.c_str());
    }
  }
  return failures == 0 ? 0 : 1;
}
