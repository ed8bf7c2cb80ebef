#include "disk/backup_format.h"

#include <gtest/gtest.h>

#include "test_util.h"
#include "util/crc32c.h"
#include "util/varint.h"

namespace scuba {
namespace {

using testing_util::MakeRows;
using testing_util::TempDir;

// Writes `bytes` (the first `keep` of them) to a file and opens it for the
// record reader, as a recovery opens a backup file past its header.
ChunkedFileReader OpenBytes(const TempDir& dir, const ByteBuffer& bytes,
                            size_t keep) {
  const std::string path = dir.path() + "/records";
  EXPECT_TRUE(RemoveFile(path).ok());
  {
    auto file = AppendableFile::Open(path);
    EXPECT_TRUE(file.ok());
    EXPECT_TRUE(file->Append(bytes.data(), keep).ok());
  }
  auto reader = ChunkedFileReader::Open(path, UINT64_MAX, 0);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  return std::move(reader).value();
}

ChunkedFileReader OpenBytes(const TempDir& dir, const ByteBuffer& bytes) {
  return OpenBytes(dir, bytes, bytes.size());
}

// Reads and decodes the next record.
Status ReadBatch(ChunkedFileReader* file, backup_format::RowBatch* batch) {
  Slice payload;
  SCUBA_RETURN_IF_ERROR(backup_format::ReadRecord(file, &payload));
  return backup_format::DecodeRowBatch(payload, batch);
}

template <typename T>
const std::vector<T>& Column(const backup_format::RowBatch& batch,
                             const std::string& name) {
  const size_t c = *batch.schema.FindColumn(name);
  return std::get<std::vector<T>>(batch.columns[c]);
}

// Encodes `rows` as the leaf does: their union schema first (which rejects
// untimed rows and conflicting types), then the record.
Status Encode(const std::vector<Row>& rows, ByteBuffer* out) {
  SCUBA_ASSIGN_OR_RETURN(Schema schema, Schema::OfRows(rows));
  return backup_format::AppendRowBatchRecord(schema, rows, out);
}

// The batch's row count: the length of its time column.
size_t NumRows(const backup_format::RowBatch& batch) {
  return Column<int64_t>(batch, "time").size();
}

TEST(BackupFormatTest, FileHeaderRoundTrip) {
  ByteBuffer buf;
  backup_format::AppendFileHeader(&buf);
  Slice in = buf.AsSlice();
  ASSERT_TRUE(backup_format::CheckFileHeader(&in).ok());
  EXPECT_TRUE(in.empty());
}

TEST(BackupFormatTest, BadMagicRejected) {
  ByteBuffer buf;
  backup_format::AppendFileHeader(&buf);
  buf.data()[0] ^= 0xFF;
  Slice in = buf.AsSlice();
  EXPECT_TRUE(backup_format::CheckFileHeader(&in).IsCorruption());
}

TEST(BackupFormatTest, RowBatchRoundTrip) {
  TempDir dir("bf_roundtrip");
  std::vector<Row> rows = MakeRows(50, 777);
  ByteBuffer buf;
  ASSERT_TRUE(Encode(rows, &buf).ok());

  ChunkedFileReader file = OpenBytes(dir, buf);
  backup_format::RowBatch batch;
  ASSERT_TRUE(ReadBatch(&file, &batch).ok());
  EXPECT_EQ(file.remaining(), 0u);
  ASSERT_EQ(NumRows(batch), rows.size());
  // One dense column per field, in the rows' field order.
  ASSERT_EQ(batch.schema.num_columns(), 4u);
  EXPECT_EQ(batch.schema.column(0).name, "time");
  const auto& times = Column<int64_t>(batch, "time");
  const auto& services = Column<std::string>(batch, "service");
  const auto& statuses = Column<int64_t>(batch, "status");
  const auto& latencies = Column<double>(batch, "latency_ms");
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(times[i], *rows[i].Time()) << i;
    EXPECT_EQ(services[i], std::get<std::string>(rows[i].fields[1].second));
    EXPECT_EQ(statuses[i], std::get<int64_t>(rows[i].fields[2].second));
    EXPECT_EQ(latencies[i], std::get<double>(rows[i].fields[3].second));
  }
}

TEST(BackupFormatTest, HeterogeneousRowsDensify) {
  TempDir dir("bf_dense");
  std::vector<Row> rows;
  Row a;
  a.SetTime(1);
  a.Set("status", int64_t{200});
  rows.push_back(a);
  Row b;
  b.SetTime(2);
  b.Set("error", std::string("boom"));
  rows.push_back(b);

  ByteBuffer buf;
  ASSERT_TRUE(Encode(rows, &buf).ok());
  ChunkedFileReader file = OpenBytes(dir, buf);
  backup_format::RowBatch batch;
  ASSERT_TRUE(ReadBatch(&file, &batch).ok());
  ASSERT_EQ(NumRows(batch), 2u);
  // Both rows carry the union schema (time, status, error), defaults
  // back-filled.
  ASSERT_EQ(batch.schema.num_columns(), 3u);
  EXPECT_EQ(Column<int64_t>(batch, "status"), (std::vector<int64_t>{200, 0}));
  EXPECT_EQ(Column<std::string>(batch, "error"),
            (std::vector<std::string>{"", "boom"}));
}

TEST(BackupFormatTest, EmptyBatchRejected) {
  ByteBuffer buf;
  EXPECT_TRUE(Encode({}, &buf).IsInvalidArgument());
}

TEST(BackupFormatTest, RowWithoutTimeRejected) {
  Row row;
  row.Set("x", int64_t{1});
  ByteBuffer buf;
  EXPECT_TRUE(Encode({row}, &buf).IsInvalidArgument());
}

TEST(BackupFormatTest, ConflictingTypesRejected) {
  Row a;
  a.SetTime(1);
  a.Set("v", int64_t{1});
  Row b;
  b.SetTime(2);
  b.Set("v", std::string("one"));
  ByteBuffer buf;
  EXPECT_TRUE(Encode({a, b}, &buf).IsInvalidArgument());
}

TEST(BackupFormatTest, EndOfInputIsNotFound) {
  TempDir dir("bf_eof");
  ChunkedFileReader file = OpenBytes(dir, ByteBuffer());
  Slice payload;
  EXPECT_TRUE(backup_format::ReadRecord(&file, &payload).IsNotFound());
}

TEST(BackupFormatTest, TornRecordIsCorruption) {
  TempDir dir("bf_torn");
  std::vector<Row> rows = MakeRows(20);
  ByteBuffer buf;
  ASSERT_TRUE(Encode(rows, &buf).ok());
  for (size_t keep : {size_t{4}, size_t{8}, size_t{20}, buf.size() - 1}) {
    ChunkedFileReader file = OpenBytes(dir, buf, keep);
    Slice payload;
    EXPECT_TRUE(backup_format::ReadRecord(&file, &payload).IsCorruption())
        << "keep " << keep;
  }
}

TEST(BackupFormatTest, LengthPastEndOfFileIsCorruption) {
  TempDir dir("bf_len");
  ByteBuffer buf;
  ASSERT_TRUE(Encode(MakeRows(20), &buf).ok());
  // A length no file this size can hold: rejected from the file's size,
  // not by trying to read (or allocate) 4 GiB.
  buf.data()[0] = 0xF0;
  buf.data()[1] = buf.data()[2] = buf.data()[3] = 0xFF;
  ChunkedFileReader file = OpenBytes(dir, buf);
  Slice payload;
  EXPECT_TRUE(backup_format::ReadRecord(&file, &payload).IsCorruption());
  EXPECT_LT(file.bytes_read(), buf.size() + 1);
}

TEST(BackupFormatTest, PayloadBitFlipFailsCrc) {
  TempDir dir("bf_crc");
  std::vector<Row> rows = MakeRows(20);
  ByteBuffer buf;
  ASSERT_TRUE(Encode(rows, &buf).ok());
  buf.data()[buf.size() / 2] ^= 0x10;
  ChunkedFileReader file = OpenBytes(dir, buf);
  Slice payload;
  EXPECT_TRUE(backup_format::ReadRecord(&file, &payload).IsCorruption());
}

TEST(BackupFormatTest, TruncatedPayloadFailsDecode) {
  ByteBuffer buf;
  ASSERT_TRUE(Encode(MakeRows(20), &buf).ok());
  // A payload whose CRC would match but whose values run out: every cut
  // short of the whole payload is Corruption, never a short batch.
  Slice payload(buf.data() + 8, buf.size() - 8);
  backup_format::RowBatch batch;
  ASSERT_TRUE(backup_format::DecodeRowBatch(payload, &batch).ok());
  for (size_t keep = 0; keep < payload.size(); keep += 7) {
    EXPECT_TRUE(backup_format::DecodeRowBatch(payload.Subslice(0, keep), &batch)
                    .IsCorruption())
        << "keep " << keep;
  }
}

TEST(BackupFormatTest, RowCountBeyondPayloadIsCorruption) {
  // type, schema {time:int64}, then a row count of 2^40 with one byte of
  // values: rejected before anything is reserved.
  ByteBuffer payload;
  payload.AppendU8(1);
  Schema schema;
  schema.AddColumn("time", ColumnType::kInt64);
  schema.Serialize(&payload);
  varint::AppendU64(&payload, uint64_t{1} << 40);
  payload.AppendU8(2);
  backup_format::RowBatch batch;
  EXPECT_TRUE(backup_format::DecodeRowBatch(payload.AsSlice(), &batch)
                  .IsCorruption());
}

TEST(BackupFormatTest, MultipleRecordsDecodeInOrder) {
  TempDir dir("bf_multi");
  ByteBuffer buf;
  ASSERT_TRUE(Encode(MakeRows(5, 100), &buf).ok());
  ASSERT_TRUE(Encode(MakeRows(7, 200), &buf).ok());
  ChunkedFileReader file = OpenBytes(dir, buf);
  backup_format::RowBatch first, second;
  ASSERT_TRUE(ReadBatch(&file, &first).ok());
  ASSERT_TRUE(ReadBatch(&file, &second).ok());
  EXPECT_EQ(NumRows(first), 5u);
  EXPECT_EQ(NumRows(second), 7u);
  EXPECT_EQ(Column<int64_t>(second, "time").front(), 200);
  Slice payload;
  EXPECT_TRUE(backup_format::ReadRecord(&file, &payload).IsNotFound());
}

TEST(BackupFormatTest, RecordsLargerThanAPieceStream) {
  TempDir dir("bf_large");
  // Three records of ~0.6 MiB each: the second straddles the reader's
  // first 1 MiB piece.
  ByteBuffer buf;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Encode(MakeRows(40000, 1000 * (i + 1)), &buf).ok());
  }
  ASSERT_GT(buf.size(), ChunkedFileReader::kPieceBytes);
  ChunkedFileReader file = OpenBytes(dir, buf);
  for (int i = 0; i < 3; ++i) {
    backup_format::RowBatch batch;
    ASSERT_TRUE(ReadBatch(&file, &batch).ok()) << i;
    EXPECT_EQ(NumRows(batch), 40000u);
    EXPECT_EQ(Column<int64_t>(batch, "time").front(), 1000 * (i + 1));
  }
  Slice payload;
  EXPECT_TRUE(backup_format::ReadRecord(&file, &payload).IsNotFound());
  EXPECT_EQ(file.bytes_read(), buf.size());
}

}  // namespace
}  // namespace scuba
