#include "serve/snapshot_io.h"

#include <string_view>
#include <vector>

#include "kb/serialization.h"
#include "util/binary_codec.h"

namespace ltee::serve {

namespace {

constexpr std::string_view kMagic("LTEESNP1", 8);
constexpr uint32_t kFormatVersion = 1;

using util::PutPod;
using util::PutString;

std::string EncodePayload(const kb::KnowledgeBase& kb) {
  std::string out;
  PutPod<uint32_t>(&out, static_cast<uint32_t>(kb.num_classes()));
  for (kb::ClassId c = 0; c < static_cast<kb::ClassId>(kb.num_classes());
       ++c) {
    const kb::ClassSpec& spec = kb.cls(c);
    PutString(&out, spec.name);
    PutPod<int16_t>(&out, spec.parent);
  }
  PutPod<uint32_t>(&out, static_cast<uint32_t>(kb.num_properties()));
  for (kb::PropertyId p = 0;
       p < static_cast<kb::PropertyId>(kb.num_properties()); ++p) {
    const kb::PropertySpec& spec = kb.property(p);
    PutPod<int16_t>(&out, spec.cls);
    PutString(&out, spec.name);
    PutPod<uint8_t>(&out, static_cast<uint8_t>(spec.type));
    // labels[0] is the normalized name AddProperty regenerates; persist
    // only the extras so a reload reconstructs the identical spec.
    const uint32_t extras =
        spec.labels.empty() ? 0 : static_cast<uint32_t>(spec.labels.size() - 1);
    PutPod<uint32_t>(&out, extras);
    for (uint32_t i = 0; i < extras; ++i) PutString(&out, spec.labels[i + 1]);
  }
  PutPod<uint32_t>(&out, static_cast<uint32_t>(kb.num_instances()));
  for (const kb::Instance& inst : kb.instances()) {
    PutPod<int16_t>(&out, inst.cls);
    PutPod<double>(&out, inst.popularity);
    PutPod<uint32_t>(&out, static_cast<uint32_t>(inst.labels.size()));
    for (const std::string& label : inst.labels) PutString(&out, label);
    PutPod<uint32_t>(&out, static_cast<uint32_t>(inst.facts.size()));
    for (const kb::Fact& fact : inst.facts) {
      PutPod<int16_t>(&out, fact.property);
      PutString(&out, kb::SerializeValue(fact.value));
    }
    PutPod<uint32_t>(&out, static_cast<uint32_t>(inst.abstract_tokens.size()));
    for (const std::string& tok : inst.abstract_tokens) PutString(&out, tok);
  }
  return out;
}

bool DecodePayload(const std::string& payload, kb::KnowledgeBase* kb,
                   std::string* error) {
  util::ByteReader r(payload, error);
  const uint32_t num_classes = r.Pod<uint32_t>();
  for (uint32_t c = 0; r.ok() && c < num_classes; ++c) {
    std::string name = r.String();
    const auto parent = r.Pod<int16_t>();
    if (!r.ok()) return false;
    // A valid parent is -1 (root) or a previously decoded class id;
    // anything else would index out of bounds in Ancestors().
    if (parent < -1 || parent >= static_cast<int16_t>(c)) {
      if (error != nullptr) *error = "class parent out of range";
      return false;
    }
    kb->AddClass(std::move(name), parent);
  }
  const uint32_t num_properties = r.Pod<uint32_t>();
  for (uint32_t p = 0; r.ok() && p < num_properties; ++p) {
    const auto cls = r.Pod<int16_t>();
    std::string name = r.String();
    const auto type = r.Pod<uint8_t>();
    const uint32_t extras = r.Pod<uint32_t>();
    std::vector<std::string> extra_labels;
    extra_labels.reserve(extras);
    for (uint32_t i = 0; r.ok() && i < extras; ++i) {
      extra_labels.push_back(r.String());
    }
    if (!r.ok()) return false;
    if (cls < 0 || cls >= static_cast<int16_t>(num_classes)) {
      if (error != nullptr) *error = "property class out of range";
      return false;
    }
    if (type >= static_cast<uint8_t>(types::kNumDataTypes)) {
      if (error != nullptr) *error = "property data type out of range";
      return false;
    }
    kb->AddProperty(cls, std::move(name),
                    static_cast<types::DataType>(type),
                    std::move(extra_labels));
  }
  const uint32_t num_instances = r.Pod<uint32_t>();
  for (uint32_t i = 0; r.ok() && i < num_instances; ++i) {
    const auto cls = r.Pod<int16_t>();
    const double popularity = r.Pod<double>();
    const uint32_t num_labels = r.Pod<uint32_t>();
    std::vector<std::string> labels;
    labels.reserve(num_labels);
    for (uint32_t l = 0; r.ok() && l < num_labels; ++l) {
      labels.push_back(r.String());
    }
    if (!r.ok()) return false;
    if (cls < 0 || cls >= static_cast<int16_t>(num_classes)) {
      if (error != nullptr) *error = "instance class out of range";
      return false;
    }
    const kb::InstanceId id = kb->AddInstance(cls, std::move(labels),
                                              popularity);
    const uint32_t num_facts = r.Pod<uint32_t>();
    for (uint32_t f = 0; r.ok() && f < num_facts; ++f) {
      const auto property = r.Pod<int16_t>();
      const std::string encoded = r.String();
      if (!r.ok()) return false;
      if (property < 0 || property >= static_cast<int16_t>(num_properties)) {
        if (error != nullptr) *error = "fact property out of range";
        return false;
      }
      auto value = kb::DeserializeValue(encoded);
      if (!value.has_value()) {
        if (error != nullptr) *error = "undecodable fact value: " + encoded;
        return false;
      }
      kb->AddFact(id, property, std::move(*value));
    }
    const uint32_t num_tokens = r.Pod<uint32_t>();
    std::vector<std::string> tokens;
    tokens.reserve(num_tokens);
    for (uint32_t t = 0; r.ok() && t < num_tokens; ++t) {
      tokens.push_back(r.String());
    }
    if (!r.ok()) return false;
    if (!tokens.empty()) kb->SetAbstractTokens(id, std::move(tokens));
  }
  if (!r.ok()) return false;
  if (!r.AtEnd()) {
    if (error != nullptr) *error = "trailing bytes after snapshot payload";
    return false;
  }
  return true;
}

}  // namespace

bool SaveSnapshotFile(const kb::KnowledgeBase& kb, uint64_t version,
                      const std::string& path, std::string* error) {
  return util::WriteFileAtomic(
      path,
      util::SealFrame(kMagic, kFormatVersion, {version}, EncodePayload(kb)),
      error);
}

bool LoadSnapshotFile(const std::string& path, kb::KnowledgeBase* kb,
                      uint64_t* version, std::string* error) {
  std::string bytes, payload, frame_error;
  if (!util::ReadFileBytes(path, &bytes, error)) return false;
  uint64_t stored_version = 0;
  if (!util::OpenFrame(bytes, kMagic, kFormatVersion, "snapshot",
                       {&stored_version, 1}, &payload, &frame_error) ||
      !DecodePayload(payload, kb, &frame_error)) {
    if (error != nullptr) *error = path + ": " + frame_error;
    return false;
  }
  if (version != nullptr) *version = stored_version;
  return true;
}

std::shared_ptr<const Snapshot> LoadSnapshot(const std::string& path,
                                             size_t num_shards,
                                             std::string* error) {
  kb::KnowledgeBase kb;
  uint64_t version = 0;
  if (!LoadSnapshotFile(path, &kb, &version, error)) return nullptr;
  return Snapshot::Build(kb, {.version = version, .num_shards = num_shards});
}

}  // namespace ltee::serve
