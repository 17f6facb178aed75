package repro

import java.nio.{ByteBuffer, ByteOrder}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.datagen.{ClocLite, CriteoLite}

/** Sanity tests of the DuckDB oracle itself over frames built from the
  * Criteo-lite and CLOC-lite generators, plus negative tests showing it
  * catches wrong results.
  */
class OracleSpec extends SparkSpec {

  /** Criteo-lite clicks: key, label, first numeric feature, first
    * categorical id — decoded from the generator's 160-byte records.
    */
  private def clicks(n: Int): DataFrame = {
    import spark.implicits._
    (1 to n).map { k =>
      val bb = ByteBuffer.wrap(CriteoLite.record(k.toLong, 42L)).order(ByteOrder.LITTLE_ENDIAN)
      (k.toLong, bb.getInt(0), bb.getFloat(4).toDouble, bb.getInt(4 + CriteoLite.NumNumeric * 4))
    }.toDF("key", "label", "n0", "c0")
  }

  /** CLOC-lite image metadata: key, year, drawn class label. */
  private def images(perYear: Int): DataFrame = {
    import spark.implicits._
    (for {
      year <- 2004 to 2006
      i    <- 0 until perYear
    } yield (year.toLong * 1000000 + i, year, ClocLite.drawClass(6, year, i, 3L).toLong))
      .toDF("key", "year", "label")
  }

  test("aggregate query matches DuckDB on Criteo-lite clicks") {
    val cl = clicks(2000).cache()
    val got = cl.groupBy("label")
      .agg(count(lit(1)).as("cnt"),
           round(sum(col("n0")), 2).as("n0_sum"))
      .select("label", "cnt", "n0_sum")
    Oracle.assertEquivalent(got,
      """SELECT label,
        |       count(*) AS cnt,
        |       round(sum(CAST(n0 AS DOUBLE)), 2) AS n0_sum
        |FROM clicks GROUP BY label""".stripMargin,
      "clicks" -> cl)
  }

  test("join query matches DuckDB on CLOC-lite images x classes") {
    import spark.implicits._
    val im = images(200).cache()
    val cs = (0 until 6).map(c => (c.toLong, if (c < 3) "west" else "east"))
      .toDF("c_label", "c_region").cache()
    val got = im.join(cs, im("label") === cs("c_label"))
      .groupBy("c_region", "year")
      .agg(count(lit(1)).as("cnt"))
      .select("c_region", "year", "cnt")
    Oracle.assertEquivalent(got,
      """SELECT c_region, year, count(*) AS cnt
        |FROM images JOIN classes ON label = c_label
        |GROUP BY c_region, year""".stripMargin,
      "images" -> im, "classes" -> cs)
  }

  test("filter + projection matches DuckDB on Criteo-lite clicks") {
    val cl = clicks(2000).cache()
    val got = cl.filter(col("label") === 1)
      .select(col("key"), col("c0"))
    assert(got.count() > 0, "the frame should hold some clicks")
    Oracle.assertEquivalent(got,
      "SELECT key, c0 FROM clicks WHERE CAST(label AS INT) = 1",
      "clicks" -> cl)
  }

  test("the oracle rejects a wrong result") {
    val cl = clicks(2000).cache()
    val wrong = cl.groupBy("label")
      .agg((count(lit(1)) + 1).as("cnt")) // off by one
      .select("label", "cnt")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT label, count(*) AS cnt FROM clicks GROUP BY label",
        "clicks" -> cl)
    }
  }

  test("the oracle rejects mismatched column aliases") {
    val cl = clicks(10).cache()
    val got = cl.agg(count(lit(1)).as("n"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got,
        "SELECT count(*) AS other_name FROM clicks", "clicks" -> cl)
    }
  }
}
