#include "compress/dictionary.h"

#include "util/varint.h"

namespace scuba {
namespace dictionary {

namespace {

template <typename Key, typename Value>
bool EncodeUpTo(const std::vector<Value>& values, size_t limit,
                std::vector<uint64_t>* codes, std::vector<Key>* dict) {
  CodeTable<Key> table;
  codes->resize(values.size());
  uint64_t* out = codes->data();
  for (const Value& v : values) {
    const uint32_t code = table.Intern(Key(v));
    if (code >= limit) return false;
    *out++ = code;
  }
  *dict = table.TakeKeys();
  return true;
}

}  // namespace

bool Encode(const std::vector<std::string>& values, size_t limit,
            std::vector<uint64_t>* codes, std::vector<std::string_view>* dict) {
  return EncodeUpTo(values, limit, codes, dict);
}

bool Encode(const std::vector<int64_t>& values, size_t limit,
            std::vector<uint64_t>* codes, std::vector<int64_t>* dict) {
  return EncodeUpTo(values, limit, codes, dict);
}

void SerializeStringDict(const std::vector<std::string_view>& dict_values,
                         ByteBuffer* out) {
  varint::AppendU64(out, dict_values.size());
  for (std::string_view v : dict_values) {
    varint::AppendU64(out, v.size());
    out->Append(v.data(), v.size());
  }
}

Status ParseStringDict(Slice input, std::vector<std::string>* dict_values) {
  dict_values->clear();
  uint64_t count = 0;
  if (!varint::ReadU64(&input, &count)) {
    return Status::Corruption("string dict: truncated count");
  }
  dict_values->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t len = 0;
    if (!varint::ReadU64(&input, &len) || input.size() < len) {
      return Status::Corruption("string dict: truncated entry");
    }
    dict_values->emplace_back(reinterpret_cast<const char*>(input.data()),
                              len);
    input.RemovePrefix(len);
  }
  return Status::OK();
}

void SerializeIntDict(const std::vector<int64_t>& dict_values,
                      ByteBuffer* out) {
  varint::AppendU64(out, dict_values.size());
  for (int64_t v : dict_values) varint::AppendI64(out, v);
}

Status ParseIntDict(Slice input, std::vector<int64_t>* dict_values) {
  dict_values->clear();
  uint64_t count = 0;
  if (!varint::ReadU64(&input, &count)) {
    return Status::Corruption("int dict: truncated count");
  }
  dict_values->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    int64_t v = 0;
    if (!varint::ReadI64(&input, &v)) {
      return Status::Corruption("int dict: truncated entry");
    }
    dict_values->push_back(v);
  }
  return Status::OK();
}

}  // namespace dictionary
}  // namespace scuba
