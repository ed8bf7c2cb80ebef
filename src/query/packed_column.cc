#include "query/packed_column.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "compress/bitpack.h"
#include "compress/column_codec.h"
#include "compress/dictionary.h"
#include "obs/metrics.h"

namespace scuba {
namespace {

// Mini-block fate breakdown, for the __scuba_stats compressed-scan panel:
// pruned/allmatch blocks never touch the payload; only `decoded` blocks pay
// the bitpack unpack + prefix sum.
struct PackedColumnMetrics {
  obs::Counter* miniblocks_pruned;
  obs::Counter* miniblocks_allmatch;
  obs::Counter* miniblocks_decoded;
  obs::Counter* dict_filters;

  static PackedColumnMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static PackedColumnMetrics m{
        reg.GetCounter("scuba.query.packed.miniblocks_pruned"),
        reg.GetCounter("scuba.query.packed.miniblocks_allmatch"),
        reg.GetCounter("scuba.query.packed.miniblocks_decoded"),
        reg.GetCounter("scuba.query.packed.dict_filters")};
    return m;
  }
};

// Signed comparison with FilterInt64's exact semantics (kContains/kPrefix
// never match an int64).
bool CompareI64(int64_t v, CompareOp op, int64_t literal) {
  switch (op) {
    case CompareOp::kEq: return v == literal;
    case CompareOp::kNe: return v != literal;
    case CompareOp::kLt: return v < literal;
    case CompareOp::kLe: return v <= literal;
    case CompareOp::kGt: return v > literal;
    case CompareOp::kGe: return v >= literal;
    default: return false;
  }
}

}  // namespace

std::unique_ptr<PackedInt64Column> PackedInt64Column::Open(
    const RowBlockColumn& column) {
  if (column.type() != ColumnType::kInt64) return nullptr;
  const size_t count = column.item_count();
  if (count == 0) return nullptr;
  const column_codec::ChainCode chain = column.compression_chain();

  auto view = std::unique_ptr<PackedInt64Column>(new PackedInt64Column());
  view->count_ = count;

  if (column_codec::IsDictBitPackChain(chain)) {
    Slice data;
    if (!column_codec::UnwrapLz4(chain, column.data_slice(),
                                 &view->lz4_storage_, &data)
             .ok()) {
      return nullptr;
    }
    if (!dictionary::ParseIntDict(column.dict_slice(), &view->dict_).ok()) {
      return nullptr;
    }
    if (view->dict_.empty()) return nullptr;
    if (!column_codec::ReadPackedCodes(data, count, &view->width_,
                                       &view->codes_)
             .ok()) {
      return nullptr;
    }
    view->mode_ = Mode::kDict;
    return view;
  }

  if (column_codec::IsMiniBlockChain(chain)) {
    Slice data;
    if (!column_codec::UnwrapLz4(chain, column.data_slice(),
                                 &view->lz4_storage_, &data)
             .ok()) {
      return nullptr;
    }
    if (!delta::ParseMiniBlocks(data, count, &view->dir_, &view->payload_)
             .ok()) {
      return nullptr;
    }
    if (view->dir_.empty()) return nullptr;
    view->mb_rows_ =
        view->dir_.size() > 1 ? view->dir_[1].row_begin : count;
    view->mode_ = Mode::kMiniBlock;
    return view;
  }

  return nullptr;  // unexpected chain: full decode path
}

Status PackedInt64Column::EnsureDecoded(size_t mb_index) {
  if (cache_.empty()) {
    cache_.assign(count_, 0);
    mb_decoded_.assign(dir_.size(), 0);
  }
  if (mb_decoded_[mb_index]) return Status::OK();
  const delta::MiniBlock& mb = dir_[mb_index];
  SCUBA_RETURN_IF_ERROR(
      delta::DecodeMiniBlock(mb, payload_, cache_.data() + mb.row_begin));
  mb_decoded_[mb_index] = 1;
  PackedColumnMetrics::Get().miniblocks_decoded->Add(1);
  return Status::OK();
}

Status PackedInt64Column::Filter(CompareOp op, int64_t literal,
                                 scan::SelVector* sel) {
  if (sel->empty()) return Status::OK();

  if (mode_ == Mode::kDict) {
    auto& metrics = PackedColumnMetrics::Get();
    metrics.dict_filters->Add(1);
    // The predicate runs once per distinct entry; rows then filter by code
    // in the packed domain (single-code predicates collapse to an Eq/Ne
    // compare, which takes the SIMD kernels instead of the bitmap probe).
    std::vector<uint8_t> keep(dict_.size(), 0);
    size_t kept = 0;
    for (size_t i = 0; i < dict_.size(); ++i) {
      if (CompareI64(dict_[i], op, literal)) {
        keep[i] = 1;
        ++kept;
      }
    }
    if (kept == 0) {
      sel->clear();
      return Status::OK();
    }
    if (kept == keep.size()) return Status::OK();
    if (kept == 1 || kept + 1 == keep.size()) {
      const uint8_t needle = kept == 1 ? 1 : 0;
      const size_t code = static_cast<size_t>(
          std::find(keep.begin(), keep.end(), needle) - keep.begin());
      scan::FilterPackedU64(needle ? CompareOp::kEq : CompareOp::kNe,
                            codes_.data(), codes_.size(), width_, count_,
                            static_cast<uint64_t>(code), sel);
      return Status::OK();
    }
    scan::FilterPackedByBitmap(codes_.data(), codes_.size(), width_, count_,
                               keep, sel);
    return Status::OK();
  }

  // Mini-block mode: walk the selection one block at a time. Blocks whose
  // (min,max) bounds decide the predicate wholesale never decode.
  if (op == CompareOp::kContains || op == CompareOp::kPrefix) {
    sel->clear();  // string-only ops: FilterInt64 clears too
    return Status::OK();
  }
  auto& metrics = PackedColumnMetrics::Get();
  scan::SelVector out;
  out.reserve(sel->size());
  const size_t n = sel->size();
  size_t i = 0;
  while (i < n) {
    const size_t mb_index = (*sel)[i] / mb_rows_;
    const delta::MiniBlock& mb = dir_[mb_index];
    const uint32_t mb_end = static_cast<uint32_t>(mb.row_begin + mb.rows);
    size_t j = i;
    while (j < n && (*sel)[j] < mb_end) ++j;
    if (scan::ZoneCanPruneInt64(op, mb.min, mb.max, literal)) {
      metrics.miniblocks_pruned->Add(1);
      i = j;
      continue;
    }
    if (scan::ZoneAllMatchInt64(op, mb.min, mb.max, literal)) {
      metrics.miniblocks_allmatch->Add(1);
      out.insert(out.end(), sel->begin() + i, sel->begin() + j);
      i = j;
      continue;
    }
    SCUBA_RETURN_IF_ERROR(EnsureDecoded(mb_index));
    for (; i < j; ++i) {
      const uint32_t row = (*sel)[i];
      if (CompareI64(cache_[row], op, literal)) out.push_back(row);
    }
  }
  *sel = std::move(out);
  return Status::OK();
}

Status PackedInt64Column::SelectTimeRange(int64_t begin, int64_t end,
                                          scan::SelVector* sel) {
  sel->clear();
  if (mode_ == Mode::kDict) {
    std::vector<uint8_t> keep(dict_.size(), 0);
    size_t kept = 0;
    for (size_t i = 0; i < dict_.size(); ++i) {
      if (dict_[i] >= begin && dict_[i] <= end) {
        keep[i] = 1;
        ++kept;
      }
    }
    if (kept == 0) return Status::OK();
    sel->resize(count_);
    std::iota(sel->begin(), sel->end(), 0u);
    if (kept == keep.size()) return Status::OK();
    scan::FilterPackedByBitmap(codes_.data(), codes_.size(), width_, count_,
                               keep, sel);
    return Status::OK();
  }

  auto& metrics = PackedColumnMetrics::Get();
  sel->reserve(count_);
  for (size_t k = 0; k < dir_.size(); ++k) {
    const delta::MiniBlock& mb = dir_[k];
    if (mb.min > end || mb.max < begin) {
      metrics.miniblocks_pruned->Add(1);
      continue;
    }
    const uint32_t row_begin = static_cast<uint32_t>(mb.row_begin);
    const uint32_t row_end = static_cast<uint32_t>(mb.row_begin + mb.rows);
    if (mb.min >= begin && mb.max <= end) {
      metrics.miniblocks_allmatch->Add(1);
      for (uint32_t r = row_begin; r < row_end; ++r) sel->push_back(r);
      continue;
    }
    SCUBA_RETURN_IF_ERROR(EnsureDecoded(k));
    for (uint32_t r = row_begin; r < row_end; ++r) {
      if (cache_[r] >= begin && cache_[r] <= end) sel->push_back(r);
    }
  }
  return Status::OK();
}

Status PackedInt64Column::MaterializeInto(const scan::SelVector* sel,
                                          std::vector<int64_t>* out) {
  if (mode_ == Mode::kDict) {
    if (sel == nullptr || sel->size() == count_) {
      std::vector<uint64_t> codes;
      SCUBA_RETURN_IF_ERROR(
          bitpack::Unpack(codes_, width_, count_, &codes));
      out->resize(count_);
      for (size_t i = 0; i < count_; ++i) {
        if (codes[i] >= dict_.size()) {
          return Status::Corruption("packed column: code out of dict range");
        }
        (*out)[i] = dict_[codes[i]];
      }
      return Status::OK();
    }
    out->assign(count_, 0);
    for (const uint32_t row : *sel) {
      const uint64_t code =
          scan::ExtractPackedLane(codes_.data(), codes_.size(), width_, row);
      if (code >= dict_.size()) {
        return Status::Corruption("packed column: code out of dict range");
      }
      (*out)[row] = dict_[code];
    }
    return Status::OK();
  }

  out->assign(count_, 0);
  auto& metrics = PackedColumnMetrics::Get();
  if (sel == nullptr) {
    for (const delta::MiniBlock& mb : dir_) {
      SCUBA_RETURN_IF_ERROR(
          delta::DecodeMiniBlock(mb, payload_, out->data() + mb.row_begin));
      metrics.miniblocks_decoded->Add(1);
    }
    return Status::OK();
  }
  const size_t n = sel->size();
  size_t i = 0;
  while (i < n) {
    const size_t mb_index = (*sel)[i] / mb_rows_;
    const delta::MiniBlock& mb = dir_[mb_index];
    const uint32_t mb_end = static_cast<uint32_t>(mb.row_begin + mb.rows);
    if (!cache_.empty() && mb_decoded_[mb_index]) {
      std::copy(cache_.begin() + mb.row_begin,
                cache_.begin() + mb.row_begin + mb.rows,
                out->begin() + mb.row_begin);
    } else {
      SCUBA_RETURN_IF_ERROR(
          delta::DecodeMiniBlock(mb, payload_, out->data() + mb.row_begin));
      metrics.miniblocks_decoded->Add(1);
    }
    while (i < n && (*sel)[i] < mb_end) ++i;
  }
  return Status::OK();
}

}  // namespace scuba
