#include "src/base/byte_writer.h"

#include <charconv>

namespace vscale {

namespace {
// Longest int64 in decimal ("-9223372036854775808") plus slack.
constexpr size_t kMaxIntChars = 24;
}  // namespace

ByteWriter::ByteWriter(std::ostream& os)
    : os_(os), buf_(std::make_unique_for_overwrite<char[]>(kChunkBytes)) {}

ByteWriter::~ByteWriter() { Flush(); }

void ByteWriter::Flush() {
  if (len_ > 0) {
    os_.write(buf_.get(), static_cast<std::streamsize>(len_));
    len_ = 0;
  }
}

void ByteWriter::Int(int64_t v) {
  if (kChunkBytes - len_ < kMaxIntChars) Flush();
  char* const at = buf_.get() + len_;
  len_ += static_cast<size_t>(std::to_chars(at, at + kMaxIntChars, v).ptr - at);
}

void ByteWriter::MicrosFromNanos(int64_t ns) {
  Int(ns / 1000);
  Put('.');
  const int64_t frac = ns % 1000;
  if (frac < 0) {
    // "%03lld" pads to width 3 counting the sign: -5 -> "-05", -50 -> "-50".
    Put('-');
    if (frac > -10) Put('0');
    Int(-frac);
    return;
  }
  if (kChunkBytes - len_ < 3) Flush();
  buf_[len_++] = static_cast<char>('0' + frac / 100);
  buf_[len_++] = static_cast<char>('0' + frac / 10 % 10);
  buf_[len_++] = static_cast<char>('0' + frac % 10);
}

}  // namespace vscale
