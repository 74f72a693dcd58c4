#include "src/cluster/fleet_view.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace defl {

static_assert(FleetView::kBlockRows == 64, "a block's changed rows are one uint64_t");

FleetView::~FleetView() {
  if (servers_ == nullptr) {
    return;
  }
  for (const auto& server : *servers_) {
    server->set_observer(nullptr);
  }
}

void FleetView::Bind(const std::vector<std::unique_ptr<Server>>& servers) {
  assert(servers_ == nullptr && "FleetView already bound");
  servers_ = &servers;
  count_ = servers.size();
  for (auto& col : free_) col.resize(count_);
  for (auto& col : deflatable_) col.resize(count_);
  for (auto& col : preemptible_) col.resize(count_);
  for (auto& col : nominal_) col.resize(count_);
  eligible_.assign(count_, 1);
  const size_t blocks = (count_ + kBlockRows - 1) / kBlockRows;
  for (auto& maxima : block_max_) maxima.assign(blocks * kNumResources, 0.0);
  for (auto& argmax : block_argmax_) argmax.assign(blocks * kNumResources, 0);
  for (auto& changed : block_changed_) changed.assign(blocks, 0);
  dirty_.assign(count_, 0);
  dirty_rows_.clear();
  dirty_rows_.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    assert(servers[i]->id() == static_cast<ServerId>(i) &&
           "FleetView requires dense server ids (id == row)");
    servers[i]->set_observer(this);
    MarkDirty(i);
  }
}

void FleetView::OnServerAllocationChanged(ServerId id) {
  MarkDirty(static_cast<size_t>(id));
}

void FleetView::MarkDirty(size_t row) {
  assert(row < count_);
  if (dirty_[row] == 0) {
    dirty_[row] = 1;
    dirty_rows_.push_back(static_cast<uint32_t>(row));
  }
}

void FleetView::RefreshRow(size_t row) {
  // Read through the same public accessors the object-graph scan would
  // call: the mirrored bits are exactly the bits that scan would have seen
  // (and the read warms/validates the server's own accounting cache).
  const Server& server = *(*servers_)[row];
  const ResourceVector free = server.Free();
  const ResourceVector deflatable = server.Deflatable();
  const ResourceVector preemptible = server.Preemptible();
  const ResourceVector nominal = server.NominalDemand();
  for (const ResourceKind kind : kAllResources) {
    const auto k = static_cast<size_t>(kind);
    free_[k][row] = free[kind];
    deflatable_[k][row] = deflatable[kind];
    preemptible_[k][row] = preemptible[kind];
    nominal_[k][row] = nominal[kind];
  }
  for (auto& changed : block_changed_) {
    changed[row / kBlockRows] |= uint64_t{1} << (row % kBlockRows);
  }
}

void FleetView::Refresh() {
  if (dirty_rows_.empty()) {
    return;
  }
  // Canonical ascending order regardless of mutation arrival order. When
  // most rows are dirty (initial bind, post-restore) a bitmap sweep beats
  // sorting a near-full permutation.
  if (dirty_rows_.size() >= count_ / 4 + 1) {
    for (size_t row = 0; row < count_; ++row) {
      if (dirty_[row] != 0) {
        RefreshRow(row);
        dirty_[row] = 0;
      }
    }
  } else {
    std::sort(dirty_rows_.begin(), dirty_rows_.end());
    for (const uint32_t row : dirty_rows_) {
      RefreshRow(row);
      dirty_[row] = 0;
    }
  }
  dirty_rows_.clear();
}

void FleetView::UpdateBlockMax(size_t block, AvailabilityMode mode) {
  const auto m = static_cast<size_t>(mode);
  const size_t begin = block * kBlockRows;
  double* const max_out = &block_max_[m][block * kNumResources];
  uint8_t* const argmax_out = &block_argmax_[m][block * kNumResources];
  uint64_t rows = block_changed_[m][block];
  block_changed_[m][block] = 0;
  // Rows that did not change still hold at most the old maxima, and each
  // maximum's row is among them unless it changed itself. So folding the
  // changed rows into the old maxima is exact, except when a maximum's row
  // changed: then that maximum may have dropped, and the whole block is
  // folded again.
  bool whole = false;
  for (int k = 0; k < kNumResources; ++k) {
    whole |= ((rows >> argmax_out[k]) & 1) != 0;
  }
  const double* base[kNumResources];
  const double* extra[kNumResources];
  double max[kNumResources];
  uint8_t argmax[kNumResources];
  for (const ResourceKind kind : kAllResources) {
    const auto k = static_cast<size_t>(kind);
    base[k] = free_col(kind);
    extra[k] = extra_col(kind, mode);
    max[k] = whole ? -std::numeric_limits<double>::infinity() : max_out[k];
    argmax[k] = argmax_out[k];
  }
  const auto fold = [&](size_t row) {
    const auto offset = static_cast<uint8_t>(row - begin);
    for (int k = 0; k < kNumResources; ++k) {
      // The scan's own availability: the same single add, in the same order.
      const double a = extra[k] == nullptr ? base[k][row] : base[k][row] + extra[k][row];
      // A NaN row makes the maximum NaN, and it stays NaN until that row
      // changes and the block is folded again.
      const bool higher = a > max[k] || (std::isnan(a) && !std::isnan(max[k]));
      max[k] = higher ? a : max[k];
      argmax[k] = higher ? offset : argmax[k];
    }
  };
  if (whole) {
    for (size_t row = begin, end = std::min(count_, begin + kBlockRows); row < end; ++row) {
      fold(row);
    }
  } else {
    for (; rows != 0; rows &= rows - 1) {
      fold(begin + static_cast<size_t>(std::countr_zero(rows)));
    }
  }
  std::copy(max, max + kNumResources, max_out);
  std::copy(argmax, argmax + kNumResources, argmax_out);
}

FleetEntry FleetView::Entry(size_t row) const {
  FleetEntry entry;
  for (const ResourceKind kind : kAllResources) {
    const auto k = static_cast<size_t>(kind);
    entry.free[kind] = free_[k][row];
    entry.deflatable[kind] = deflatable_[k][row];
    entry.preemptible[kind] = preemptible_[k][row];
    entry.nominal[kind] = nominal_[k][row];
  }
  entry.eligible = eligible_[row] != 0;
  return entry;
}

bool FleetView::RowConsistent(size_t row) const {
  const Server& server = *(*servers_)[row];
  const FleetEntry entry = Entry(row);
  return entry.free == server.Free() && entry.deflatable == server.Deflatable() &&
         entry.preemptible == server.Preemptible() &&
         entry.nominal == server.NominalDemand();
}

bool FleetView::BlockMaxConsistent(size_t block) const {
  const size_t begin = block * kBlockRows;
  const size_t end = std::min(count_, begin + kBlockRows);
  for (int m = 0; m < kNumAvailabilityModes; ++m) {
    const auto mode = static_cast<AvailabilityMode>(m);
    if (block_changed_[static_cast<size_t>(m)][block] != 0) {
      continue;
    }
    const auto availability = [&](size_t row) {
      const FleetEntry entry = Entry(row);
      switch (mode) {
        case AvailabilityMode::kFreeOnly:
          return entry.free;
        case AvailabilityMode::kFreePlusDeflatable:
          return entry.free + entry.deflatable;
        case AvailabilityMode::kFreePlusPreemptible:
          return entry.free + entry.preemptible;
      }
      return entry.free;
    };
    ResourceVector want =
        ResourceVector::Uniform(-std::numeric_limits<double>::infinity());
    for (size_t row = begin; row < end; ++row) {
      want = want.Max(availability(row));
    }
    for (const ResourceKind kind : kAllResources) {
      const size_t i = block * kNumResources + static_cast<size_t>(kind);
      const double max = block_max_[static_cast<size_t>(m)][i];
      const size_t holder = begin + block_argmax_[static_cast<size_t>(m)][i];
      if (max != want[kind] || holder >= end || availability(holder)[kind] != max) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace defl
