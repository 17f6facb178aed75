package repro.datagen

import java.nio.{ByteBuffer, ByteOrder}
import repro.storage.{FileSystemWrapper, FileWrapperType, SampleMeta, SampleRegistry}
import repro.util.Rng

/** Synthetic stand-in for the Criteo 1TB click-logs dataset (§5.1.1).
  *
  * The real dataset is proprietary-scale (24 days × ~180 M samples); this
  * generator reproduces its *storage shape* — fixed 160-byte binary rows
  * (Int32 click label, 13 Float32 numeric features, 26 Int32 categorical
  * ids), packed into multi-sample binary files read via
  * [[repro.storage.BinaryFileWrapper]] — at a configurable scale. Labels
  * are drawn from a ground-truth logistic model over the features so a
  * CTR model trained on the data actually learns (AUC well above 0.5).
  *
  * Every byte is a pure function of (sample key, seed): see [[repro.util.Rng]].
  */
object CriteoLite {
  val NumNumeric: Int     = 13
  val NumCategorical: Int = 26
  /** 4 (label) + 13*4 (numeric) + 26*4 (categorical) = 160 bytes — the
    * record size the paper reports for Criteo samples. */
  val RecordSize: Int     = 4 + NumNumeric * 4 + NumCategorical * 4

  /** Cardinality of categorical field `f` (varied like real CTR data). */
  def fieldCardinality(f: Int): Int = Array(100, 1000, 50, 10, 100000, 5000)(f % 6)

  /** Ground-truth coefficient for numeric feature `f`. */
  private def numCoef(f: Int, seed: Long): Double =
    Rng.gaussian(Rng.mix2(seed, 0x517CC1B7L + f)) * 0.6

  /** Ground-truth coefficient for (categorical field, bucketed value). */
  private def catCoef(f: Int, value: Int, seed: Long): Double =
    Rng.gaussian(Rng.mix2(seed, 0x2545F491L + f * 131 + (value % 13))) * 0.35

  /** Generate the record for `key` into a fresh 160-byte array. */
  def record(key: Long, seed: Long): Array[Byte] = {
    val bytes = new Array[Byte](RecordSize)
    val bb    = ByteBuffer.wrap(bytes).order(ByteOrder.LITTLE_ENDIAN)
    var score = -1.2 // negative bias: clicks are the rare class
    bb.position(4)
    var f = 0
    while (f < NumNumeric) {
      // Heavy-tailed counts, like Criteo's integer features.
      val u   = Rng.uniform(Rng.mix2(key, seed * 31 + f))
      val v   = (-math.log(math.max(u, 1e-12)) * 8.0).toFloat
      bb.putFloat(v)
      score += numCoef(f, seed) * math.log1p(v.toDouble) / 3.0
      f += 1
    }
    var c = 0
    while (c < NumCategorical) {
      val card = fieldCardinality(c)
      // Zipf-ish skew: square the uniform to favour low ids.
      val u  = Rng.uniform(Rng.mix2(key, seed * 77 + 1000 + c))
      val id = math.min(card - 1, (u * u * card).toInt)
      bb.putInt(id)
      score += catCoef(c, id, seed)
      c += 1
    }
    val p     = 1.0 / (1.0 + math.exp(-score))
    val label = if (Rng.uniform(Rng.mix2(key, seed * 131 + 7)) < p) 1 else 0
    bb.putInt(0, label)
    bytes
  }

  /** Label of the record for `key` without materializing the payload. */
  def labelOf(key: Long, seed: Long): Long =
    ByteBuffer.wrap(record(key, seed)).order(ByteOrder.LITTLE_ENDIAN).getInt(0).toLong

  /** Write `numSamples` records into fixed-size binary files under `dir`
    * (`samplesPerFile` per file, like the paper's ~180 k-sample files) and
    * ingest them into `registry`. Sample timestamps are `tsBase + i` so
    * arrival order equals key order. Returns the ingested metadata.
    */
  def generate(fs: FileSystemWrapper, registry: SampleRegistry, dir: String,
               numSamples: Int, samplesPerFile: Int, seed: Long = 42,
               tsBase: Long = 0L): IndexedSeq[SampleMeta] = {
    require(numSamples > 0 && samplesPerFile > 0, "numSamples and samplesPerFile must be positive")
    val out  = IndexedSeq.newBuilder[SampleMeta]
    var done = 0
    var fileIdx = 0
    while (done < numSamples) {
      val n     = math.min(samplesPerFile, numSamples - done)
      val bytes = new Array[Byte](n * RecordSize)
      val labels = new Array[Long](n)
      var i = 0
      while (i < n) {
        val rec = record(done + i + 1L, seed)
        System.arraycopy(rec, 0, bytes, i * RecordSize, RecordSize)
        labels(i) = ByteBuffer.wrap(rec).order(ByteOrder.LITTLE_ENDIAN).getInt(0).toLong
        i += 1
      }
      val path = f"$dir/criteo_$fileIdx%05d.bin"
      fs.write(path, bytes)
      val base = done
      out ++= registry.ingestPrecomputed(path, FileWrapperType.Binary(RecordSize),
        labels.toIndexedSeq, i => tsBase + base + i)
      done += n
      fileIdx += 1
    }
    out.result()
  }
}
