// Buffered byte sink for bulk text exports (Chrome-trace JSON, stall CSV).
//
// Exports write tens of millions of short fields. Going through `std::ostream`
// operator<< per field costs a locale-aware formatting call and a sentry each
// time; this writer instead appends into one preallocated buffer, formats
// integers with std::to_chars, and hands the stream ~1 MiB chunks. The bytes
// produced are exactly what the equivalent printf/ostream calls would produce.

#ifndef VSCALE_SRC_BASE_BYTE_WRITER_H_
#define VSCALE_SRC_BASE_BYTE_WRITER_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <ostream>
#include <string_view>

namespace vscale {

class ByteWriter {
 public:
  static constexpr size_t kChunkBytes = size_t{1} << 20;

  explicit ByteWriter(std::ostream& os);
  // Flushes. Write errors land in the stream's state: check the stream once
  // the writer is gone.
  ~ByteWriter();

  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void Put(char c) {
    if (len_ == kChunkBytes) Flush();
    buf_[len_++] = c;
  }

  void Put(std::string_view s) {
    if (s.size() > kChunkBytes - len_) {
      Flush();
      if (s.size() > kChunkBytes) {
        os_.write(s.data(), static_cast<std::streamsize>(s.size()));
        return;
      }
    }
    std::memcpy(buf_.get() + len_, s.data(), s.size());
    len_ += s.size();
  }

  // Decimal, as printf("%lld") / ostream << int64_t.
  void Int(int64_t v);

  // Nanoseconds as microseconds with three decimals, byte-for-byte
  // printf("%lld.%03lld", ns / 1000, ns % 1000) — including its output for
  // negative values, where both parts carry the sign ("-1.-500", "0.-05").
  void MicrosFromNanos(int64_t ns);

 private:
  void Flush();  // hands everything buffered so far to the stream

  std::ostream& os_;
  std::unique_ptr<char[]> buf_;
  size_t len_ = 0;
};

}  // namespace vscale

#endif  // VSCALE_SRC_BASE_BYTE_WRITER_H_
