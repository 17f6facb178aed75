package repro.core.triggers

import repro.selector.NewSample
import repro.storage.SampleColumns
import scala.collection.immutable.ArraySeq

/** A triggering policy (§3.1, §4.1.1): informed of each arriving batch
  * S_t, it returns the ordered list of indices i whose sample s_i causes a
  * new training run. Policies are stateful and may use the entire history.
  */
trait Trigger {
  /** Indices (0-based within the batch, ascending) of the rows of `batch`
    * that cause a trigger.
    */
  def inform(batch: SampleColumns): Array[Int]

  /** Row form of [[inform]]. */
  final def inform(samples: Seq[NewSample]): Seq[Int] =
    ArraySeq.unsafeWrapArray(inform(NewSample.columns(samples)))
}

/** Amount-based triggering: fire on every `dataPointsForTrigger`-th data
  * point. Multiple triggers can fall inside one informed batch.
  */
final class DataAmountTrigger(dataPointsForTrigger: Int) extends Trigger {
  require(dataPointsForTrigger > 0, "data_points_for_trigger must be positive")
  private var seenSinceTrigger = 0

  override def inform(batch: SampleColumns): Array[Int] = {
    val out = Array.newBuilder[Int]
    var i = 0
    while (i < batch.size) {
      seenSinceTrigger += 1
      if (seenSinceTrigger == dataPointsForTrigger) {
        out += i
        seenSinceTrigger = 0
      }
      i += 1
    }
    out.result()
  }
}

/** Time-based triggering: fire when a sample's timestamp crosses the next
  * interval boundary since the last trigger. The boundary grid is anchored
  * at the first sample ever seen; several empty intervals collapse into a
  * single trigger at the next arriving sample (a sample can cause at most
  * one trigger, per the §3.1 formalization).
  */
final class TimePeriodTrigger(intervalSec: Long) extends Trigger {
  require(intervalSec > 0, "interval must be positive")
  private var anchored     = false
  private var nextBoundary = 0L

  override def inform(batch: SampleColumns): Array[Int] = {
    val out = Array.newBuilder[Int]
    var i = 0
    while (i < batch.size) {
      val ts = batch.ts(batch.from + i)
      if (!anchored) {
        anchored = true
        nextBoundary = ts + intervalSec
      } else if (ts >= nextBoundary) {
        out += i
        // Skip boundaries with no data; stay on the fixed grid.
        nextBoundary += ((ts - nextBoundary) / intervalSec + 1) * intervalSec
      }
      i += 1
    }
    out.result()
  }
}

/** Resolve a trigger policy from its pipeline name + config. */
object Trigger {
  def byName(id: String, config: Map[String, Double]): Trigger = id match {
    case "DataAmountTrigger" =>
      new DataAmountTrigger(config.getOrElse("data_points_for_trigger",
        throw new IllegalArgumentException("DataAmountTrigger needs data_points_for_trigger")).toInt)
    case "TimeTrigger" | "TimePeriodTrigger" =>
      new TimePeriodTrigger(config.getOrElse("every_seconds",
        throw new IllegalArgumentException("TimeTrigger needs every_seconds")).toLong)
    case other => throw new IllegalArgumentException(s"unknown trigger policy '$other'")
  }
}
