#ifndef LTEE_UTIL_BINARY_CODEC_H_
#define LTEE_UTIL_BINARY_CODEC_H_

#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ltee::util {

/// The binary codec shared by the repo's checksummed files (the LTEESNP1
/// serving snapshot and the LTEEMDL1 trained-model file). Every file is
/// one frame, all integers little-endian:
///
///   8 bytes   magic
///   u32       format version
///   u64 × N   format-specific header fields (N fixed per format)
///   u64       FNV-1a checksum of the payload bytes
///   u64       payload size in bytes
///   payload
///
/// Doubles are stored as their raw IEEE-754 bits, so a round trip is
/// bit-exact.

/// 64-bit FNV-1a hash of `bytes`.
uint64_t Fnv1a(std::string_view bytes);

template <typename T>
void PutPod(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

/// u32 length followed by the bytes.
void PutString(std::string* out, std::string_view s);

/// u32 count followed by the raw bits of each value.
void PutDoubles(std::string* out, const std::vector<double>& values);

/// Bounds-checked reader over a payload. The first read past the end
/// latches `ok()` to false and writes "truncated payload" to `error`;
/// later reads return zero values.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, std::string* error)
      : bytes_(bytes), error_(error) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  template <typename T>
  T Pod() {
    T v{};
    if (!Take(sizeof(T))) return v;
    std::memcpy(&v, bytes_.data() + pos_ - sizeof(T), sizeof(T));
    return v;
  }

  std::string String();

  /// Reads a u32 element count and fails unless `min_bytes_each` bytes
  /// per element are left, so a hostile count cannot drive an allocation
  /// larger than the payload. Returns 0 on failure.
  uint32_t Count(size_t min_bytes_each);

  /// Reads a PutDoubles list.
  std::vector<double> Doubles();

  /// Records a decode error found by the caller (an out-of-range value)
  /// and latches `ok()` to false. Always returns false.
  bool Fail(const std::string& message);

 private:
  bool Take(size_t n);

  std::string_view bytes_;
  std::string* error_;
  size_t pos_ = 0;
  bool ok_ = true;
};

/// Frames `payload` under `magic` (exactly 8 bytes), `format` and the
/// header `fields`.
std::string SealFrame(std::string_view magic, uint32_t format,
                      const std::vector<uint64_t>& fields,
                      std::string_view payload);

/// Checks a frame's magic, format version, payload size and checksum,
/// then returns the payload through `payload` and the format's header
/// fields through `fields` (one per element). `what` names the file kind
/// in errors ("not a <what> file (bad magic)").
bool OpenFrame(const std::string& bytes, std::string_view magic,
               uint32_t format, const char* what, std::span<uint64_t> fields,
               std::string* payload, std::string* error);

/// Closes `out` (written to `path`) and checks that every byte reached
/// the file: a full disk or an unwritable target such as /dev/full
/// accepts the open and fails only when the buffer is flushed. On
/// failure sets `error` to "cannot write <path>".
bool CloseOutputFile(std::ofstream* out, const std::string& path,
                     std::string* error);

/// Writes `bytes` to `path` atomically: to `path.tmp` first, renamed
/// over `path` only after CloseOutputFile succeeds.
bool WriteFileAtomic(const std::string& path, const std::string& bytes,
                     std::string* error);

/// Reads the whole of `path` into `bytes`.
bool ReadFileBytes(const std::string& path, std::string* bytes,
                   std::string* error);

}  // namespace ltee::util

#endif  // LTEE_UTIL_BINARY_CODEC_H_
