// Shared-medium contention sweep: N clients against one AP and one
// finite-capacity server (src/medium/), crossed with the server admission
// policy and the per-client data-source policy.
//
//   ./build/bench/bench_contention [--jobs N] [--clients 1,2,4,8,16]
//                                  [--policies flexfetch,wnic-only]
//                                  [--admissions fifo,battery] [--seed S]
//                                  [--out FILE]
//
// Each cell runs a MultiClientSim: client i replays paper scenario i mod 5
// with its own policy instance, a PHY link-quality penalty and a battery
// state (client 0 always starts low, below the server's battery-aware
// admission threshold). The record written to BENCH_contention.json
// deliberately carries no timing fields: with fixed seeds it is
// byte-identical across reruns and across --jobs values — that identity is
// the determinism gate CI leans on. Two headline comparisons land in its
// "summary" object:
//
//  * split shift — FlexFetch's network/disk byte split in the contended
//    N>=4 FIFO cell vs the same client mix run solo (each client alone on
//    a private channel, identical spec): contention raises the priced
//    cost of every network fetch, so bytes migrate toward the disk;
//  * battery-aware benefit — the low-battery client's energy under
//    "battery" vs "fifo" admission at the largest N with wnic-only
//    clients: trunk-reserved slots cut its CAM queueing time.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "harness.hpp"
#include "medium/multi_client.hpp"
#include "policies/factory.hpp"
#include "workloads/scenarios.hpp"

using namespace flexfetch;

namespace {

struct Cell {
  int clients = 1;
  std::string admission;
  std::string policy;
};

medium::ServerParams server_params(const std::string& admission) {
  medium::ServerParams p;
  p.capacity = 2;
  p.reserved_slots = 1;
  p.low_battery_threshold = 0.30;
  p.admission = admission;
  return p;
}

/// Client i's starting battery: client 0 is always low (below the
/// admission threshold); the rest ramp from 0.40 up to 1.0.
double initial_battery(int i, int n) {
  if (i == 0) return 0.12;
  if (n <= 2) return 0.40;
  return 0.40 + 0.60 * static_cast<double>(i - 1) /
                    static_cast<double>(n - 2 > 0 ? n - 2 : 1);
}

/// Client i's spec in an n-client cell (sans policy, which the caller
/// owns): scenario i mod 5, PHY quality degrading with distance, battery
/// per initial_battery.
medium::ClientSpec make_spec(int i, int n,
                             const workloads::ScenarioBundle& bundle) {
  medium::ClientSpec spec;
  spec.name = bundle.name + "#" + std::to_string(i);
  spec.programs = bundle.programs;
  // Crowded-cell link rate: a busy AP falls back from 11 to 5.5 Mb/s PHY
  // (802.11b rate adaptation under interference), which delivers ~3 Mb/s
  // of MAC-layer goodput. The solo baseline uses the same spec, so the
  // contended-vs-solo comparison isolates contention itself, not the
  // rate. This matters: at the full 11 Mb/s the paper's sparse traces
  // leave the medium >90% idle, nothing contends, and every cell
  // degenerates to N independent runs. Near the disk/network breakeven,
  // dividing the airtime genuinely moves decisions.
  spec.config.wnic = spec.config.wnic.with_bandwidth_mbps(3.0);
  spec.link_quality = 1.0 - 0.05 * static_cast<double>(i % 4);
  spec.battery.initial_fraction = initial_battery(i, n);
  return spec;
}

medium::MultiClientResult run_contention_cell(
    const Cell& cell, const std::vector<workloads::ScenarioBundle>& bundles) {
  medium::MultiClientConfig config;
  config.server = server_params(cell.admission);

  std::vector<std::unique_ptr<sim::Policy>> policies;
  std::vector<medium::ClientSpec> specs;
  policies.reserve(static_cast<std::size_t>(cell.clients));
  specs.reserve(static_cast<std::size_t>(cell.clients));
  for (int i = 0; i < cell.clients; ++i) {
    const workloads::ScenarioBundle& b = bundles[static_cast<std::size_t>(i)];
    policies.push_back(policies::make_policy(cell.policy, b.profiles,
                                             &b.oracle_future, 0.25));
    medium::ClientSpec spec = make_spec(i, cell.clients, b);
    spec.policy = policies.back().get();
    specs.push_back(std::move(spec));
  }
  medium::MultiClientSim sim(config, std::move(specs));
  return sim.run();
}

/// The uncontended reference for an n-client cell: each client of the
/// same mix run *alone* — identical trace, PHY quality and battery, a
/// whole AP and server to itself — byte totals summed. The delta against
/// the contended cell is therefore pure contention (airtime division +
/// slot queueing), not scenario mix or link quality.
struct SoloBaseline {
  double energy_j = 0.0;
  std::uint64_t net_bytes = 0;
  std::uint64_t disk_bytes = 0;

  double net_fraction() const {
    const double total = static_cast<double>(net_bytes + disk_bytes);
    return total > 0.0 ? static_cast<double>(net_bytes) / total : 0.0;
  }
};

SoloBaseline run_solo_baseline(
    int n, const std::string& policy,
    const std::vector<workloads::ScenarioBundle>& bundles) {
  SoloBaseline base;
  for (int i = 0; i < n; ++i) {
    const workloads::ScenarioBundle& b = bundles[static_cast<std::size_t>(i)];
    const auto pol =
        policies::make_policy(policy, b.profiles, &b.oracle_future, 0.25);
    medium::ClientSpec spec = make_spec(i, n, b);
    spec.policy = pol.get();
    medium::MultiClientConfig config;
    config.server = server_params("fifo");
    medium::MultiClientSim sim(config, {std::move(spec)});
    const auto result = sim.run();
    base.net_bytes += result.clients[0].net_bytes.value();
    base.disk_bytes += result.clients[0].disk_bytes.value();
    base.energy_j += result.clients[0].total_energy().value();
  }
  return base;
}

/// Everything the JSON record (and the identity check) needs — totals are
/// plain doubles/integers so two runs can be compared field by field.
struct CellRecord {
  Cell cell;
  double energy_j = 0.0;
  double makespan_s = 0.0;
  std::uint64_t net_bytes = 0;
  std::uint64_t disk_bytes = 0;
  double net_byte_fraction = 0.0;
  std::uint64_t server_queue_waits = 0;
  double server_queue_wait_s = 0.0;
  std::uint64_t server_max_depth = 0;
  std::uint64_t reserved_deferrals = 0;
  std::uint64_t medium_transfers = 0;
  std::uint64_t contended_transfers = 0;
  double mean_share = 1.0;
  struct ClientRow {
    double link_quality = 1.0;
    double battery_initial = 1.0;
    double battery_final = 1.0;
    double energy_j = 0.0;
    std::uint64_t net_bytes = 0;
    std::uint64_t disk_bytes = 0;
    std::uint64_t queue_waits = 0;
    double queue_wait_s = 0.0;
  };
  std::vector<ClientRow> clients;

  bool operator==(const CellRecord& o) const {
    if (energy_j != o.energy_j || makespan_s != o.makespan_s ||
        net_bytes != o.net_bytes || disk_bytes != o.disk_bytes ||
        server_queue_waits != o.server_queue_waits ||
        server_queue_wait_s != o.server_queue_wait_s ||
        clients.size() != o.clients.size()) {
      return false;
    }
    for (std::size_t i = 0; i < clients.size(); ++i) {
      if (clients[i].energy_j != o.clients[i].energy_j ||
          clients[i].net_bytes != o.clients[i].net_bytes ||
          clients[i].disk_bytes != o.clients[i].disk_bytes ||
          clients[i].battery_final != o.clients[i].battery_final) {
        return false;
      }
    }
    return true;
  }
};

CellRecord summarize(const Cell& cell, const medium::MultiClientResult& r) {
  CellRecord rec;
  rec.cell = cell;
  for (std::size_t i = 0; i < r.clients.size(); ++i) {
    const sim::SimResult& c = r.clients[i];
    rec.energy_j += c.total_energy().value();
    rec.makespan_s = std::max(rec.makespan_s, c.makespan.value());
    rec.net_bytes += c.net_bytes.value();
    rec.disk_bytes += c.disk_bytes.value();
    CellRecord::ClientRow row;
    row.link_quality = 1.0 - 0.05 * static_cast<double>(i % 4);
    row.battery_initial =
        initial_battery(static_cast<int>(i), cell.clients);
    row.battery_final = r.battery_final[i];
    row.energy_j = c.total_energy().value();
    row.net_bytes = c.net_bytes.value();
    row.disk_bytes = c.disk_bytes.value();
    row.queue_waits = c.wnic_counters.server_queue_waits;
    row.queue_wait_s = c.wnic_counters.server_queue_wait.value();
    rec.clients.push_back(std::move(row));
  }
  const double total_bytes =
      static_cast<double>(rec.net_bytes + rec.disk_bytes);
  rec.net_byte_fraction =
      total_bytes > 0.0 ? static_cast<double>(rec.net_bytes) / total_bytes
                        : 0.0;
  rec.server_queue_waits = r.server.queue_waits;
  rec.server_queue_wait_s = r.server.queue_wait.value();
  rec.server_max_depth = r.server.max_depth;
  rec.reserved_deferrals = r.server.reserved_deferrals;
  rec.medium_transfers = r.medium.transfers;
  rec.contended_transfers = r.medium.contended_transfers;
  rec.mean_share = r.medium.mean_share();
  return rec;
}

/// The "contended" reference point: the smallest N >= 4 that ran.
int pick_n_big(const std::vector<int>& clients_axis) {
  int n_big = 0;
  for (const int n : clients_axis) {
    if (n >= 4 && (n_big == 0 || n < n_big)) n_big = n;
  }
  return n_big;
}

void write_json(std::ostream& os, const std::vector<CellRecord>& records,
                const std::vector<int>& clients_axis, std::uint64_t seed,
                const SoloBaseline* ff_baseline) {
  os << "{\n";
  os << "  \"seed\": " << seed << ",\n";
  os << "  \"server\": {\"capacity\": 2, \"reserved_slots\": 1, "
        "\"low_battery_threshold\": 0.3},\n";
  os << "  \"cells\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const CellRecord& r = records[i];
    os << "    {\"clients\": " << r.cell.clients << ", \"admission\": \""
       << r.cell.admission << "\", \"policy\": \"" << r.cell.policy << "\",\n"
       << "     \"energy_j\": " << r.energy_j
       << ", \"makespan_s\": " << r.makespan_s
       << ", \"net_bytes\": " << r.net_bytes
       << ", \"disk_bytes\": " << r.disk_bytes
       << ", \"net_byte_fraction\": " << r.net_byte_fraction << ",\n"
       << "     \"server\": {\"queue_waits\": " << r.server_queue_waits
       << ", \"queue_wait_s\": " << r.server_queue_wait_s
       << ", \"max_depth\": " << r.server_max_depth
       << ", \"reserved_deferrals\": " << r.reserved_deferrals << "},\n"
       << "     \"medium\": {\"transfers\": " << r.medium_transfers
       << ", \"contended_transfers\": " << r.contended_transfers
       << ", \"mean_share\": " << r.mean_share << "},\n"
       << "     \"clients_detail\": [\n";
    for (std::size_t c = 0; c < r.clients.size(); ++c) {
      const auto& row = r.clients[c];
      os << "       {\"client\": " << c << ", \"link_quality\": "
         << row.link_quality << ", \"battery_initial\": "
         << row.battery_initial << ", \"battery_final\": "
         << row.battery_final << ", \"energy_j\": " << row.energy_j
         << ", \"net_bytes\": " << row.net_bytes << ", \"disk_bytes\": "
         << row.disk_bytes << ", \"queue_waits\": " << row.queue_waits
         << ", \"queue_wait_s\": " << row.queue_wait_s << "}"
         << (c + 1 < r.clients.size() ? "," : "") << "\n";
    }
    os << "     ]}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "  ],\n";

  // Headline comparisons (see the file comment). Keyed lookups so the
  // summary survives axis subsets: entries are omitted when their cells
  // did not run.
  const auto find = [&](int n, const std::string& admission,
                        const std::string& policy) -> const CellRecord* {
    for (const CellRecord& r : records) {
      if (r.cell.clients == n && r.cell.admission == admission &&
          r.cell.policy == policy) {
        return &r;
      }
    }
    return nullptr;
  };
  const int n_big = pick_n_big(clients_axis);
  os << "  \"summary\": {";
  bool first = true;
  const auto emit = [&](const char* key, double v) {
    os << (first ? "\n" : ",\n") << "    \"" << key << "\": " << v;
    first = false;
  };
  const CellRecord* ff1 = find(1, "fifo", "flexfetch");
  const CellRecord* ffn = n_big > 0 ? find(n_big, "fifo", "flexfetch") : nullptr;
  if (ff1 != nullptr && ffn != nullptr) {
    emit("flexfetch_net_fraction_n1", ff1->net_byte_fraction);
    emit("flexfetch_net_fraction_contended", ffn->net_byte_fraction);
  }
  // The shift is measured against the same client mix run client-by-client
  // on private channels (see run_solo_baseline) — not against the N=1
  // cell, whose single-scenario byte mix is not comparable.
  if (ffn != nullptr && ff_baseline != nullptr) {
    emit("flexfetch_net_fraction_solo", ff_baseline->net_fraction());
    emit("flexfetch_split_shift",
         ff_baseline->net_fraction() - ffn->net_byte_fraction);
  }
  const CellRecord* fifo_big =
      n_big > 0 ? find(n_big, "fifo", "wnic-only") : nullptr;
  const CellRecord* batt_big =
      n_big > 0 ? find(n_big, "battery", "wnic-only") : nullptr;
  if (fifo_big != nullptr && batt_big != nullptr &&
      !fifo_big->clients.empty() && !batt_big->clients.empty()) {
    emit("low_battery_client_energy_fifo_j", fifo_big->clients[0].energy_j);
    emit("low_battery_client_energy_battery_j",
         batt_big->clients[0].energy_j);
    emit("battery_aware_savings_j", fifo_big->clients[0].energy_j -
                                        batt_big->clients[0].energy_j);
  }
  os << (first ? "" : "\n  ") << "}\n";
  os << "}\n";
}

}  // namespace

int run(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_contention: %s\n", e.what());
    return 1;
  }
}

int run(int argc, char** argv) {
  int jobs = 0;
  std::uint64_t seed = 1;
  std::string out_path = "BENCH_contention.json";
  std::string clients_csv = "1,2,4,8,16";
  std::string policies_csv = "flexfetch,wnic-only";
  std::string admissions_csv = "fifo,battery";
  bench::ParsedFlags flags;
  flags.add("jobs", &jobs, "N");
  flags.add("clients", &clients_csv, "1,2,4");
  flags.add("policies", &policies_csv, "a,b");
  flags.add("admissions", &admissions_csv, "fifo,battery");
  flags.add("seed", &seed, "S");
  flags.add("out", &out_path, "FILE");
  flags.parse(argc, argv);
  jobs = sim::resolve_jobs(jobs);

  std::vector<int> clients_axis;
  int n_max = 0;
  for (const std::string& s : bench::split_csv(clients_csv)) {
    int n = 0;
    if (!bench::parse_number(s, n) || n <= 0) {
      flags.usage_and_exit(argv[0], "bad --clients entry", s.c_str());
    }
    clients_axis.push_back(n);
    n_max = std::max(n_max, n);
  }
  const std::vector<std::string> policy_names = bench::split_csv(policies_csv);
  const std::vector<std::string> admissions = bench::split_csv(admissions_csv);

  // One read-only bundle per client slot, shared by every cell: client i
  // always replays scenario i mod 5 seeded with seed + i, so a cell's
  // inputs depend only on (N, admission, policy) and the base seed.
  using Builder = workloads::ScenarioBundle (*)(std::uint64_t);
  const Builder builders[] = {
      workloads::scenario_grep_make, workloads::scenario_mplayer,
      workloads::scenario_thunderbird, workloads::scenario_forced_spinup,
      workloads::scenario_stale_acroread};
  std::vector<workloads::ScenarioBundle> bundles;
  bundles.reserve(static_cast<std::size_t>(n_max));
  for (int i = 0; i < n_max; ++i) {
    bundles.push_back(builders[i % 5](seed + static_cast<std::uint64_t>(i)));
  }

  std::vector<Cell> cells;
  for (const int n : clients_axis) {
    for (const std::string& adm : admissions) {
      for (const std::string& pol : policy_names) {
        cells.push_back(Cell{n, adm, pol});
      }
    }
  }
  std::printf("contention grid: %zu N-points x %zu admissions x %zu policies "
              "= %zu cells, jobs=%d\n",
              clients_axis.size(), admissions.size(), policy_names.size(),
              cells.size(), jobs);

  // Serial reference pass (also the only pass when jobs == 1 — the
  // bench_sweep serial-fallback convention).
  std::vector<CellRecord> records(cells.size());
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    records[i] = summarize(cells[i], run_contention_cell(cells[i], bundles));
  }
  const double serial_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("serial  (jobs=1): %.2f s\n", serial_wall);

  if (jobs > 1) {
    std::vector<CellRecord> parallel(cells.size());
    const auto t1 = std::chrono::steady_clock::now();
    {
      ThreadPool pool(static_cast<unsigned>(jobs));
      parallel_for(pool, cells.size(), [&](std::size_t i) {
        parallel[i] =
            summarize(cells[i], run_contention_cell(cells[i], bundles));
      });
    }
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1)
            .count();
    std::printf("parallel (jobs=%d): %.2f s\n", jobs, wall);
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (!(records[i] == parallel[i])) {
        ++mismatches;
        std::fprintf(stderr,
                     "DETERMINISM VIOLATION at cell %zu (N=%d %s/%s)\n", i,
                     cells[i].clients, cells[i].admission.c_str(),
                     cells[i].policy.c_str());
      }
    }
    if (mismatches > 0) return 1;
    std::printf("determinism: parallel cells identical to serial baseline "
                "(%zu cells)\n",
                cells.size());
  } else {
    std::printf("serial fallback: 1 effective worker, single pass only\n");
  }

  for (const CellRecord& r : records) {
    std::printf("N=%-3d %-8s %-16s energy=%10.1f J  net%%=%5.1f  "
                "queue_waits=%llu  wait=%.2f s\n",
                r.cell.clients, r.cell.admission.c_str(),
                r.cell.policy.c_str(), r.energy_j,
                100.0 * r.net_byte_fraction,
                static_cast<unsigned long long>(r.server_queue_waits),
                r.server_queue_wait_s);
  }

  // Uncontended reference for the split-shift summary: the n_big client
  // mix, each client alone on a private channel. Only meaningful (and only
  // paid for) when the contended flexfetch cell actually ran.
  SoloBaseline ff_baseline;
  bool have_baseline = false;
  const int n_big = pick_n_big(clients_axis);
  for (const Cell& c : cells) {
    if (c.clients == n_big && c.admission == "fifo" &&
        c.policy == "flexfetch") {
      ff_baseline = run_solo_baseline(n_big, "flexfetch", bundles);
      have_baseline = true;
      std::printf(
          "solo baseline (N=%d mix, private channels): net%%=%5.1f "
          "energy=%8.1f J\n",
          n_big, 100.0 * ff_baseline.net_fraction(), ff_baseline.energy_j);
      break;
    }
  }

  std::ofstream os(out_path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  write_json(os, records, clients_axis, seed,
             have_baseline ? &ff_baseline : nullptr);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
