// Reference oracle for the history checker: the paper's Section 2.2
// definitions (plus atomicity for the ABD baseline) as direct scans over a
// complete history, following the reporting rules documented in
// checker/history.hpp. HistoryLog::check() must reproduce these reports
// byte for byte at every window; test_checker replays random and
// hand-crafted histories into both.
//
// `ops` is a history in log order, i.e. invocation order.
#pragma once

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "checker/history.hpp"

namespace rr::checker::reference {

struct Indexed {
  std::vector<const OpRecord*> writes;  ///< invocation order
  std::vector<const OpRecord*> reads;
};

inline Indexed index_ops(const std::vector<OpRecord>& ops) {
  Indexed ix;
  for (const auto& op : ops) {
    (op.kind == OpRecord::Kind::Write ? ix.writes : ix.reads).push_back(&op);
  }
  return ix;
}

/// op1 (complete) precedes op2 iff op1 responded before op2 was invoked.
inline bool precedes(const OpRecord& op1, const OpRecord& op2) {
  return op1.complete && op1.responded_at < op2.invoked_at;
}

inline bool concurrent(const OpRecord& a, const OpRecord& b) {
  return !precedes(a, b) && !precedes(b, a);
}

/// Regularity condition (1): the returned <ts, value> corresponds to an
/// actual write invocation (or the initial value).
inline bool returned_value_was_written(const Indexed& ix, const OpRecord& rd,
                                       std::string* why) {
  if (rd.ts == 0) {
    if (!rd.value.empty()) {
      *why = "returned timestamp 0 with non-initial value";
      return false;
    }
    return true;
  }
  // Writer timestamps are dense (1..N in invocation order), so ts identifies
  // the write. An incomplete write still counts: its intended value is
  // recorded at invocation and may be returned by concurrent reads.
  if (rd.ts > ix.writes.size()) {
    *why = "returned timestamp larger than any invoked write";
    return false;
  }
  if (ix.writes[static_cast<std::size_t>(rd.ts - 1)]->value != rd.value) {
    *why = "returned value differs from the value written at that timestamp";
    return false;
  }
  return true;
}

/// Writer timestamps are 1..N in invocation order; operations of one client
/// do not overlap.
inline CheckReport check_well_formed(const std::vector<OpRecord>& ops) {
  CheckReport report;
  const Indexed ix = index_ops(ops);
  report.writes_checked = static_cast<int>(ix.writes.size());
  report.reads_checked = static_cast<int>(ix.reads.size());

  Ts expected = 1;
  for (const auto* wr : ix.writes) {
    if (wr->complete && wr->ts != expected) {
      report.violations.push_back("write timestamps not dense: expected " +
                                  std::to_string(expected) + ", " +
                                  describe_op(*wr));
    }
    ++expected;
  }

  std::map<std::pair<int, int>, std::vector<const OpRecord*>> per_client;
  for (const auto& op : ops) {
    per_client[{op.kind == OpRecord::Kind::Write ? 0 : 1, op.client}]
        .push_back(&op);
  }
  for (auto& [key, client_ops] : per_client) {
    std::stable_sort(client_ops.begin(), client_ops.end(),
                     [](const OpRecord* a, const OpRecord* b) {
                       return a->invoked_at < b->invoked_at;
                     });
    for (std::size_t i = 1; i < client_ops.size(); ++i) {
      const auto* prev = client_ops[i - 1];
      if (!prev->complete || prev->responded_at > client_ops[i]->invoked_at) {
        report.violations.push_back("client ops overlap: " +
                                    describe_op(*prev) + " vs " +
                                    describe_op(*client_ops[i]));
      }
    }
  }
  return report;
}

inline CheckReport check_safety(const std::vector<OpRecord>& ops) {
  CheckReport report;
  const Indexed ix = index_ops(ops);
  report.writes_checked = static_cast<int>(ix.writes.size());

  for (const auto* rd : ix.reads) {
    if (!rd->complete) continue;
    // Safety constrains only reads that are concurrent with no write.
    bool has_concurrent_write = false;
    Ts last_preceding = 0;
    for (const auto* wr : ix.writes) {
      if (concurrent(*wr, *rd)) {
        has_concurrent_write = true;
        break;
      }
      if (precedes(*wr, *rd) && wr->ts > last_preceding) {
        last_preceding = wr->ts;
      }
    }
    if (has_concurrent_write) continue;
    ++report.reads_checked;
    std::string why;
    if (rd->ts != last_preceding) {
      report.violations.push_back(
          "safety: read returned ts " + std::to_string(rd->ts) +
          " but the last preceding write has ts " +
          std::to_string(last_preceding) + ": " + describe_op(*rd));
    } else if (!returned_value_was_written(ix, *rd, &why)) {
      report.violations.push_back("safety: " + why + ": " + describe_op(*rd));
    }
  }
  return report;
}

/// Conditions (2), (1), (3) in that order; the first that fails is the one
/// reported.
inline CheckReport check_regularity(const std::vector<OpRecord>& ops) {
  CheckReport report;
  const Indexed ix = index_ops(ops);
  report.writes_checked = static_cast<int>(ix.writes.size());

  for (const auto* rd : ix.reads) {
    if (!rd->complete) continue;
    ++report.reads_checked;

    // Condition (2): a read succeeding WRITE_k returns val_l with l >= k.
    Ts max_preceding = 0;
    for (const auto* wr : ix.writes) {
      if (precedes(*wr, *rd) && wr->ts > max_preceding) {
        max_preceding = wr->ts;
      }
    }
    if (rd->ts < max_preceding) {
      report.violations.push_back(
          "regularity(2): read returned ts " + std::to_string(rd->ts) +
          " although WRITE with ts " + std::to_string(max_preceding) +
          " precedes it: " + describe_op(*rd));
      continue;
    }

    // Condition (1): only written values are returned.
    std::string why;
    if (!returned_value_was_written(ix, *rd, &why)) {
      report.violations.push_back("regularity(1): " + why + ": " +
                                  describe_op(*rd));
      continue;
    }

    // Condition (3): a read returning val_k does not precede WRITE_k.
    if (rd->ts >= 1 &&
        precedes(*rd, *ix.writes[static_cast<std::size_t>(rd->ts - 1)])) {
      report.violations.push_back(
          "regularity(3): read returned a value whose write was invoked "
          "only after the read responded: " +
          describe_op(*rd));
    }
  }
  return report;
}

/// Regularity plus no new-old inversion between non-concurrent reads (for
/// SWMR registers equivalent to atomicity, per Lamport). Each late read is
/// reported once, against its strongest preceding read: highest ts, then
/// earliest response, then log order.
inline CheckReport check_atomicity(const std::vector<OpRecord>& ops) {
  CheckReport report = check_regularity(ops);
  const Indexed ix = index_ops(ops);
  for (const auto* r2 : ix.reads) {
    if (!r2->complete) continue;
    const OpRecord* strongest = nullptr;
    for (const auto* r1 : ix.reads) {
      if (!r1->complete || !precedes(*r1, *r2)) continue;
      if (strongest == nullptr || r1->ts > strongest->ts ||
          (r1->ts == strongest->ts &&
           r1->responded_at < strongest->responded_at)) {
        strongest = r1;
      }
    }
    if (strongest != nullptr && r2->ts < strongest->ts) {
      report.violations.push_back("atomicity: new-old inversion: " +
                                  describe_op(*strongest) + " precedes " +
                                  describe_op(*r2));
    }
  }
  return report;
}

/// What HistoryLog::check(p) reports: well-formedness violations, then the
/// property's, with the property's counts.
inline CheckReport check(const std::vector<OpRecord>& ops, Property p) {
  CheckReport report = check_well_formed(ops);
  const CheckReport semantic = p == Property::Safe      ? check_safety(ops)
                               : p == Property::Regular ? check_regularity(ops)
                                                        : check_atomicity(ops);
  report.violations.insert(report.violations.end(),
                           semantic.violations.begin(),
                           semantic.violations.end());
  report.reads_checked = semantic.reads_checked;
  report.writes_checked = semantic.writes_checked;
  return report;
}

}  // namespace rr::checker::reference
