package repro.selector

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.TestUtil.withTmpDir
import repro.storage.LocalFileSystemWrapper

/** Cross-checks the selection policies, run on the Spark/Parquet backend,
  * against DuckDB SQL over the same metadata — "many policies can be
  * expressed using SQL statements" (§4.1.2), so a wrong policy is caught by
  * the result-equality oracle, not just by "it ran".
  */
class PolicyOracleSpec extends SparkSpec {
  private val fs = new LocalFileSystemWrapper

  private def ctx(dir: String, backend: MetadataBackend): SelectorContext =
    SelectorContext(backend, new TriggerSampleStorage(fs, s"$dir/tss"),
      partitionSize = 50, seed = 17)

  private def seed(backend: MetadataBackend, n: Int): Unit =
    backend.persist((1 to n).map(i =>
      SeenSample(i.toLong, (i % 4).toLong, i.toLong, i % 3)))

  test("new-data selection equals SELECT key FROM seen") {
    withTmpDir { dir =>
      val b = new SparkParquetBackend(spark, s"$dir/pq")
      seed(b, 40)
      val c = ctx(dir, b)
      val s = new NewDataStrategy(c, resetAfterTrigger = false)
      s.seekTrigger(3)
      val selected = s.onTrigger().tss.readTrigger(3).map(_.key)
      import spark.implicits._
      Oracle.assertEquivalent(selected.toDF("key"),
        "SELECT key FROM seen", "seen" -> b.df)
      b.close()
    }
  }

  test("per-trigger scan equals SELECT key FROM seen WHERE trig = x") {
    withTmpDir { dir =>
      val b = new SparkParquetBackend(spark, s"$dir/pq")
      seed(b, 40)
      import spark.implicits._
      val got = b.scanTrigger(1).map(_.key).toDF("key")
      Oracle.assertEquivalent(got,
        "SELECT key FROM seen WHERE CAST(trig AS INT) = 1", "seen" -> b.df)
      b.close()
    }
  }

  test("uniform random selection is a subset with the SQL-checked size") {
    withTmpDir { dir =>
      val b = new SparkParquetBackend(spark, s"$dir/pq")
      seed(b, 60)
      val c = ctx(dir, b)
      val s = new UniformRandomStrategy(c, resetAfterTrigger = false, fraction = Some(0.25))
      val selected = s.onTrigger().tss.readTrigger(0).map(_.key)
      import spark.implicits._
      // Size: ceil(0.25 * 60) = 15, checked via SQL count; membership:
      // selected ∖ seen must be empty.
      Oracle.assertEquivalent(
        Seq(selected.size.toLong).toDF("cnt"),
        "SELECT CAST(ceil(0.25 * count(*)) AS BIGINT) AS cnt FROM seen",
        "seen" -> b.df)
      Oracle.assertEquivalent(
        selected.toDF("key").except(b.df.select("key")).agg(count(lit(1)).as("extra")),
        "SELECT count(*) * 0 AS extra FROM seen", "seen" -> b.df)
      b.close()
    }
  }

  test("label-balanced selection has SQL-checked per-label counts") {
    withTmpDir { dir =>
      val b = new SparkParquetBackend(spark, s"$dir/pq")
      // Labels 0..3 with skewed counts: 0 -> 24, 1 -> 12, 2 -> 8, 3 -> 6.
      b.persist((1 to 24).map(i => SeenSample(i, 0, i, 0)))
      b.persist((25 to 36).map(i => SeenSample(i, 1, i, 0)))
      b.persist((37 to 44).map(i => SeenSample(i, 2, i, 0)))
      b.persist((45 to 50).map(i => SeenSample(i, 3, i, 0)))
      val c = ctx(dir, b)
      val s = new LabelBalancedStrategy(c, resetAfterTrigger = false)
      val selected = s.onTrigger().tss.readTrigger(0).map(_.key)
      import spark.implicits._
      val selDf  = selected.toDF("key")
      val counts = selDf.join(b.df, "key").groupBy("label")
        .agg(count(lit(1)).as("cnt")).select("label", "cnt")
      // Every label contributes exactly min-group-size (6) samples.
      Oracle.assertEquivalent(counts,
        """SELECT label, (SELECT min(c) FROM
          |  (SELECT count(*) AS c FROM seen GROUP BY label)) AS cnt
          |FROM seen GROUP BY label""".stripMargin,
        "seen" -> b.df)
      b.close()
    }
  }

  test("trigger-balanced selection has SQL-checked per-trigger counts") {
    withTmpDir { dir =>
      val b = new SparkParquetBackend(spark, s"$dir/pq")
      b.persist((1 to 20).map(i => SeenSample(i, 0, i, 0)))
      b.persist((21 to 30).map(i => SeenSample(i, 0, i, 1)))
      b.persist((31 to 35).map(i => SeenSample(i, 0, i, 2)))
      val c = ctx(dir, b)
      val s = new TriggerBalancedStrategy(c, resetAfterTrigger = false)
      s.seekTrigger(3)
      val selected = s.onTrigger().tss.readTrigger(3).map(_.key)
      import spark.implicits._
      val counts = selected.toDF("key").join(b.df, "key").groupBy("trig")
        .agg(count(lit(1)).as("cnt")).select("trig", "cnt")
      Oracle.assertEquivalent(counts,
        """SELECT trig, (SELECT min(c) FROM
          |  (SELECT count(*) AS c FROM seen GROUP BY trig)) AS cnt
          |FROM seen GROUP BY trig""".stripMargin,
        "seen" -> b.df)
      b.close()
    }
  }

  test("gdumb memory counts match the SQL class histogram when under-full") {
    withTmpDir { dir =>
      val b = new SparkParquetBackend(spark, s"$dir/pq")
      val c = ctx(dir, b)
      val s = new GDumbStrategy(c, memorySize = 1000)
      val data = (1 to 50).map(i => NewSample(i.toLong, (i % 5).toLong, i.toLong))
      s.inform(data)
      // Mirror the stream into the backend for the SQL side.
      b.persist(data.map(x => SeenSample(x.key, x.label, x.timestampSec, 0)))
      import spark.implicits._
      val got = s.memoryCounts.toSeq.map { case (l, n) => (l, n.toLong) }
        .toDF("label", "cnt")
      Oracle.assertEquivalent(got,
        "SELECT label, count(*) AS cnt FROM seen GROUP BY label",
        "seen" -> b.df)
      b.close()
    }
  }
}
