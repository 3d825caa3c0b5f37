#include "util/binary_codec.h"

#include <cstdio>
#include <fstream>
#include <sstream>

namespace ltee::util {

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void PutString(std::string* out, std::string_view s) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutDoubles(std::string* out, const std::vector<double>& values) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(values.size()));
  for (double v : values) PutPod<double>(out, v);
}

bool ByteReader::Take(size_t n) {
  if (!ok_) return false;
  if (bytes_.size() - pos_ < n) return Fail("truncated payload");
  pos_ += n;
  return true;
}

bool ByteReader::Fail(const std::string& message) {
  if (ok_ && error_ != nullptr) *error_ = message;
  ok_ = false;
  return false;
}

std::string ByteReader::String() {
  const uint32_t n = Pod<uint32_t>();
  if (!ok_ || !Take(n)) return {};
  return std::string(bytes_.substr(pos_ - n, n));
}

uint32_t ByteReader::Count(size_t min_bytes_each) {
  const uint32_t n = Pod<uint32_t>();
  if (ok_ && (bytes_.size() - pos_) / min_bytes_each < n) {
    Fail("truncated payload");
  }
  return ok_ ? n : 0;
}

std::vector<double> ByteReader::Doubles() {
  std::vector<double> out(Count(sizeof(double)));
  for (double& v : out) v = Pod<double>();
  return out;
}

std::string SealFrame(std::string_view magic, uint32_t format,
                      const std::vector<uint64_t>& fields,
                      std::string_view payload) {
  std::string bytes(magic);
  PutPod<uint32_t>(&bytes, format);
  for (uint64_t field : fields) PutPod<uint64_t>(&bytes, field);
  PutPod<uint64_t>(&bytes, Fnv1a(payload));
  PutPod<uint64_t>(&bytes, static_cast<uint64_t>(payload.size()));
  bytes.append(payload);
  return bytes;
}

bool OpenFrame(const std::string& bytes, std::string_view magic,
               uint32_t format, const char* what, std::span<uint64_t> fields,
               std::string* payload, std::string* error) {
  const size_t header_size =
      magic.size() + sizeof(uint32_t) + (fields.size() + 2) * sizeof(uint64_t);
  if (bytes.size() < header_size ||
      bytes.compare(0, magic.size(), magic) != 0) {
    if (error != nullptr) {
      *error = std::string("not a ") + what + " file (bad magic)";
    }
    return false;
  }
  ByteReader header(std::string_view(bytes).substr(magic.size()), nullptr);
  const uint32_t stored_format = header.Pod<uint32_t>();
  if (stored_format != format) {
    if (error != nullptr) {
      *error = std::string("unsupported ") + what + " format version " +
               std::to_string(stored_format);
    }
    return false;
  }
  for (uint64_t& field : fields) field = header.Pod<uint64_t>();
  const uint64_t checksum = header.Pod<uint64_t>();
  const uint64_t payload_size = header.Pod<uint64_t>();
  if (bytes.size() - header_size != payload_size) {
    if (error != nullptr) {
      *error = "payload size mismatch (header says " +
               std::to_string(payload_size) + ", file has " +
               std::to_string(bytes.size() - header_size) + ")";
    }
    return false;
  }
  *payload = bytes.substr(header_size);
  if (Fnv1a(*payload) != checksum) {
    if (error != nullptr) *error = "checksum mismatch";
    return false;
  }
  return true;
}

bool CloseOutputFile(std::ofstream* out, const std::string& path,
                     std::string* error) {
  out->close();
  if (*out) return true;
  if (error != nullptr) *error = "cannot write " + path;
  return false;
}

bool WriteFileAtomic(const std::string& path, const std::string& bytes,
                     std::string* error) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!CloseOutputFile(&out, tmp, error)) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error != nullptr) *error = "cannot rename " + tmp + " -> " + path;
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

bool ReadFileBytes(const std::string& path, std::string* bytes,
                   std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot read " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *bytes = buffer.str();
  return true;
}

}  // namespace ltee::util
