package store

import (
	"encoding/csv"
	"io"
	"strconv"

	"weboftrust/internal/ratings"
)

// ExportCSV writes the dataset as five CSV documents to the given writers
// (any may be nil to skip that section):
//
//	users:   id,name
//	objects: id,category,name       (category by name)
//	reviews: id,writer,object
//	ratings: rater,review,value
//	trust:   from,to
type CSVWriters struct {
	Users, Objects, Reviews, Ratings, Trust io.Writer
}

// ExportCSV writes the dataset's sections to the non-nil writers in ws.
func ExportCSV(ws CSVWriters, d *ratings.Dataset) error {
	if ws.Users != nil {
		w := csv.NewWriter(ws.Users)
		if err := w.Write([]string{"id", "name"}); err != nil {
			return err
		}
		for u := 0; u < d.NumUsers(); u++ {
			if err := w.Write([]string{strconv.Itoa(u), d.UserName(ratings.UserID(u))}); err != nil {
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
	}
	if ws.Objects != nil {
		w := csv.NewWriter(ws.Objects)
		if err := w.Write([]string{"id", "category", "name"}); err != nil {
			return err
		}
		for o := 0; o < d.NumObjects(); o++ {
			obj := d.Object(ratings.ObjectID(o))
			rec := []string{strconv.Itoa(o), d.CategoryName(obj.Category), obj.Name}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
	}
	if ws.Reviews != nil {
		w := csv.NewWriter(ws.Reviews)
		if err := w.Write([]string{"id", "writer", "object"}); err != nil {
			return err
		}
		for r := 0; r < d.NumReviews(); r++ {
			rev := d.Review(ratings.ReviewID(r))
			rec := []string{strconv.Itoa(r), strconv.Itoa(int(rev.Writer)), strconv.Itoa(int(rev.Object))}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
	}
	if ws.Ratings != nil {
		w := csv.NewWriter(ws.Ratings)
		if err := w.Write([]string{"rater", "review", "value"}); err != nil {
			return err
		}
		for _, rt := range d.Ratings() {
			rec := []string{
				strconv.Itoa(int(rt.Rater)),
				strconv.Itoa(int(rt.Review)),
				strconv.FormatFloat(rt.Value, 'g', -1, 64),
			}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
	}
	if ws.Trust != nil {
		w := csv.NewWriter(ws.Trust)
		if err := w.Write([]string{"from", "to"}); err != nil {
			return err
		}
		for _, e := range d.TrustEdges() {
			rec := []string{strconv.Itoa(int(e.From)), strconv.Itoa(int(e.To))}
			if err := w.Write(rec); err != nil {
				return err
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			return err
		}
	}
	return nil
}
